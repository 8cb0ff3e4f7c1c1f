package eval

import (
	"math"
	"testing"

	"orfdisk"
	"orfdisk/internal/core"
	"orfdisk/internal/smart"
)

// catalogRow lays an unscaled projected vector into a fresh catalog-width
// row, the shape a collector sends the service.
func catalogRow(c *Corpus, x []float64) []float64 {
	values := make([]float64, smart.NumFeatures())
	layCatalog(values, c.Features, x)
	return values
}

// TestORFStreamMatchesEngine: the ORF the protocols run is the service's
// model. A memory-only Engine serving one drive model is fed the corpus's
// training arrivals, one IngestBatch per day; at every month boundary it
// scores each test disk's vectors through Engine.ScoreBatch, and every
// score — so every per-disk score — equals, bit for bit, the protocols'
// stream scoring the same vector through its FrozenModel.
func TestORFStreamMatchesEngine(t *testing.T) {
	c := buildTestCorpus(t, 40)
	cfg := core.Config{Trees: 5, Seed: 3}
	const model = "ST4000DM000"
	eng, err := orfdisk.NewEngine(orfdisk.EngineConfig{
		Predictor: orfdisk.Config{Features: c.Features, Horizon: smart.PredictionHorizonDays, ORF: cfg},
		// Republish after every applied slice, so the snapshot ScoreBatch
		// reads holds every row of the batches before it.
		FreezeEvery:    1,
		FreezeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	orf := newORFStream(c, smart.PredictionHorizonDays, cfg)

	testRows := make([][][]float64, len(c.TestDisks))
	for i, d := range c.TestDisks {
		for _, x := range d.Raw {
			testRows[i] = append(testRows[i], catalogRow(c, x))
		}
	}
	var (
		batch  []orfdisk.FleetObservation
		scores []orfdisk.ScoreResult
		next   int
	)
	for month := 1; month <= c.Months(); month++ {
		day := month * smart.DaysPerMonth
		for next < len(c.TrainArrivals) && int(c.TrainArrivals[next].Day) < day {
			batch = batch[:0]
			for today := c.TrainArrivals[next].Day; next < len(c.TrainArrivals) && c.TrainArrivals[next].Day == today; next++ {
				a := &c.TrainArrivals[next]
				batch = append(batch, orfdisk.FleetObservation{Model: model, Observation: orfdisk.Observation{
					Serial: c.TrainDisks[a.DiskIdx].Serial, Day: int(a.Day), Failed: a.Fail,
					Values: catalogRow(c, a.Raw),
				}})
			}
			for _, r := range eng.IngestBatch(batch) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
			}
		}
		orf.absorbUntil(day)

		scorer := orf.scorer()
		distinct := map[float64]bool{}
		for i, d := range c.TestDisks {
			if scores, err = eng.ScoreBatch(model, testRows[i], scores); err != nil {
				t.Fatal(err)
			}
			for j, x := range d.Raw {
				got, want := scores[j].Score, scorer(x)
				if scores[j].Err != nil || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("month %d, disk %s, day %d: engine score %v (err %v), protocol stream %v",
						month, d.Meta.Serial, d.Days[j], got, scores[j].Err, want)
				}
				distinct[got] = true
			}
		}
		if month == c.Months() && len(distinct) < 10 {
			t.Fatalf("only %d distinct scores after the whole stream: the check compares nothing", len(distinct))
		}
	}
	if st := orf.p.Stats(); st.PosSeen == 0 {
		t.Fatalf("the stream released no positive sample: %+v", st)
	}
}
