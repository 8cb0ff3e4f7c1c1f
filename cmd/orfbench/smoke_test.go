package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeAllWorkloads runs the -short regime end to end: the real
// binaries, built from this checkout, on a ~20k-row corpus, all four
// workloads, oracle included. The last is traced, so the twin, the
// extra layers of the group and the trace file are covered too.
func TestSmokeAllWorkloads(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	build := t.TempDir()
	var hash string
	for i, w := range workloads {
		trace := w.Name == "fleet_day_mixed" || w.Name == "backfill_recover"
		var log bytes.Buffer
		h, err := newHarness(root, build, w.Name, 42, true, trace)
		if err != nil {
			t.Fatal(err)
		}
		h.outDir = filepath.Join(build, "out")
		res, err := h.execute(&log)
		if err != nil {
			t.Fatalf("%s: %v\n%s", w.Name, err, log.String())
		}
		if !res.Correct || res.Failed != 0 || len(res.Mismatches) != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d mismatches=%v\n%s",
				w.Name, res.Correct, res.Attempted, res.Failed, res.Mismatches, log.String())
		}
		for _, d := range endToEnd {
			if m, ok := res.EndToEnd[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.Name, d.Name, m)
			}
		}
		for _, d := range workloadMetrics[w.Name] {
			m, ok := res.Detail[d.Name]
			if !ok {
				m, ok = res.PerLayer[d.Name]
			}
			if !ok || !(m.Value > 0) || m.Unit != d.Unit {
				t.Errorf("%s: workload metric %s = %+v", w.Name, d.Name, m)
			}
		}
		if len(res.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want all %d", w.Name, len(res.PerLayer), len(perLayer))
		}
		if rows := res.Counts["history_rows"] + res.Counts["live_rows"]; rows < 10000 || rows > 40000 {
			t.Errorf("%s: smoke corpus has %d rows, want about 20k", w.Name, rows)
		}
		if len(res.Host.Children) == 0 || res.Host.GoVersion == "" || res.Host.Cores == 0 || len(res.Host.Corpus) == 0 {
			t.Errorf("%s: host stamp incomplete: %+v", w.Name, res.Host)
		}

		// The contract line parses and carries the right metric set.
		var line struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]Metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
			t.Fatalf("%s: contract line: %v", w.Name, err)
		}
		want := len(endToEnd)
		if trace {
			want = len(perLayer)
		}
		if len(line.Metrics) != want || line.Attempted != res.Attempted {
			t.Errorf("%s: contract line has %d metrics, want %d", w.Name, len(line.Metrics), want)
		}

		// Layers separate as predicted.
		zero := func(names ...string) {
			for _, n := range names {
				if v := res.PerLayer[n].Value; v != 0 {
					t.Errorf("%s: %s = %v, want 0", w.Name, n, v)
				}
			}
		}
		switch w.Name {
		case "predict_sweep":
			zero("wal.bytes_per_row", "wal.fsyncs", "labeling.released_pos", "labeling.released_neg",
				"core.trees_replaced", "engine.freezes", "replica.sync_unacked", "cluster.retries")
		case "observe_stream":
			zero("replica.ack_rtt_us", "cluster.route_self_us_per_req", "replica.lag_records_max")
			if res.PerLayer["wal.bytes_per_row"].Value <= 0 || res.PerLayer["labeling.released_neg"].Value <= 0 {
				t.Errorf("%s: the write path recorded no work: %+v", w.Name, res.PerLayer)
			}
		case "fleet_day_mixed":
			for _, n := range []string{"replica.ack_rtt_us", "cluster.route_self_us_per_req", "serve.observe_self_us_per_row", "serve.predict_self_us_per_row"} {
				if !(res.PerLayer[n].Value > 0) {
					t.Errorf("%s: %s = %v, want work", w.Name, n, res.PerLayer[n].Value)
				}
			}
			if _, err := os.Stat(filepath.Join(h.outDir, "trace-fleet_day_mixed.json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		case "backfill_recover":
			for _, n := range []string{"backfill.run_rows_per_s", "engine.recover_ms", "wal.replay_rows_per_s", "frame.ratio", "core.snapshot_bytes"} {
				if !(res.PerLayer[n].Value > 0) {
					t.Errorf("%s: %s = %v, want work", w.Name, n, res.PerLayer[n].Value)
				}
			}
		}

		// Same seed, same bytes on the wire: the ingest half of
		// backfill_recover replays a prefix of observe_stream's days, so
		// only a rerun of the same workload is comparable.
		if i == 0 {
			hash = res.RequestHash
			again, err := newHarness(root, build, w.Name, 42, true, false)
			if err != nil {
				t.Fatal(err)
			}
			res2, err := again.execute(&log)
			if err != nil {
				t.Fatalf("%s rerun: %v", w.Name, err)
			}
			if res2.RequestHash != hash || hash == "" {
				t.Errorf("same seed, request hashes %q and %q", hash, res2.RequestHash)
			}
			for _, n := range []string{"rows_acknowledged", "requests", "history_rows", "live_rows"} {
				if res.Counts[n] != res2.Counts[n] {
					t.Errorf("count %s does not repeat: %d then %d", n, res.Counts[n], res2.Counts[n])
				}
			}
		}
	}
}
