package core

import (
	"testing"

	"orfdisk/internal/frame"
)

// FuzzReadForest throws arbitrary bytes at the snapshot decoder: it must
// either reject them with an error or produce a forest whose predictions
// do not panic. Seeded with a genuine snapshot so mutations explore the
// format's neighborhood, and with the misshapen trees DecodeForest
// refuses.
func FuzzReadForest(f *testing.F) {
	f.Add(trainForest(f, 1, 400).AppendTo(nil, frame.Flate))
	for _, tc := range misshapenTrees {
		f.Add(misshapenForest(f, tc.damage).AppendTo(nil, frame.Raw))
	}
	f.Add([]byte(nil))
	f.Add([]byte("ORF1"))
	f.Add([]byte("garbage that is long enough to not be an obvious header"))
	f.Fuzz(func(t *testing.T, data []byte) {
		forest, _, err := DecodeForest(data)
		if err != nil {
			return
		}
		// A snapshot that parses must be structurally usable: it scores
		// live and frozen (Freeze walks every tree).
		x := make([]float64, forest.Dim())
		p := forest.PredictProba(x)
		if p < 0 || p > 1 {
			t.Fatalf("restored forest proba %v", p)
		}
		if _, err := forest.Freeze().Score(x); err != nil {
			t.Fatal(err)
		}
		_ = forest.Stats()
	})
}
