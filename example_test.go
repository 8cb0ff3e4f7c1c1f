package orfdisk_test

import (
	"bytes"
	"fmt"

	"orfdisk"
)

// ExampleNewPredictor shows the minimal Algorithm 2 loop: ingest daily
// snapshots, let the labeling queues and the online forest do the rest.
func ExampleNewPredictor() {
	pred := orfdisk.NewPredictor(orfdisk.Config{
		ORF: orfdisk.ORFConfig{Trees: 5, Seed: 1},
	})

	values := orfdisk.PackValues(
		map[int]float64{5: 100, 187: 100}, // normalized values by SMART id
		map[int]float64{5: 0, 187: 0, 9: 12000},
	)
	p, err := pred.Ingest(orfdisk.Observation{
		Serial: "Z302T4N9", Day: 0, Values: values,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("risky:", p.Risky, "- tracked disks:", pred.TrackedDisks())
	// Output: risky: false - tracked disks: 1
}

// ExamplePredictor_SaveState demonstrates snapshotting a predictor and
// resuming it bit for bit: the labeling queues come back with the
// model, so the resumed predictor learns from the next day exactly as
// the original does.
func ExamplePredictor_SaveState() {
	pred := orfdisk.NewPredictor(orfdisk.Config{
		ORF: orfdisk.ORFConfig{Trees: 3, Seed: 7},
	})
	v := make([]float64, orfdisk.CatalogSize())
	for day := 0; day < 10; day++ {
		if _, err := pred.Ingest(orfdisk.Observation{Serial: "d", Day: day, Values: v}); err != nil {
			panic(err)
		}
	}

	var buf bytes.Buffer
	if err := pred.SaveState(&buf); err != nil {
		panic(err)
	}
	resumed, err := orfdisk.LoadPredictorState(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Println("queued samples:", resumed.PendingSamples(), "of", pred.PendingSamples())
	for _, p := range []*orfdisk.Predictor{pred, resumed} {
		if _, err := p.Ingest(orfdisk.Observation{Serial: "d", Day: 10, Values: v}); err != nil {
			panic(err)
		}
	}
	fmt.Println("updates after the next day:", resumed.Stats().Updates, "and", pred.Stats().Updates)
	// Output:
	// queued samples: 7 of 7
	// updates after the next day: 4 and 4
}

// ExampleNewFleet routes two drive models to independent online models,
// as section 4.1 of the paper requires.
func ExampleNewFleet() {
	fleet := orfdisk.NewFleet(orfdisk.Config{ORF: orfdisk.ORFConfig{Trees: 3, Seed: 1}})
	v := make([]float64, orfdisk.CatalogSize())
	for _, m := range []string{"ST4000DM000", "ST3000DM001"} {
		_, err := fleet.Ingest(orfdisk.FleetObservation{
			Model:       m,
			Observation: orfdisk.Observation{Serial: "disk-" + m, Day: 0, Values: v},
		})
		if err != nil {
			panic(err)
		}
	}
	fmt.Println(fleet.Models())
	// Output: [ST3000DM001 ST4000DM000]
}
