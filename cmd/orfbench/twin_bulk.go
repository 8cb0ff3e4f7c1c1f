package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"orfdisk"
	"orfdisk/internal/backfill"
	"orfdisk/internal/core"
	"orfdisk/internal/frame"
	"orfdisk/internal/wal"
)

// bulkTwin times the layers of the bulk load, crash recovery and the
// snapshot codec in process: backfill_recover's traced run.
func (h *Harness) bulkTwin(ctx context.Context) error {
	res := h.res
	dir := filepath.Join(h.workDir, "twin")
	files := h.corpus.HistoryFiles
	rows := float64(h.corpus.HistoryRows)

	// backfill.Run end to end into a durable engine.
	eng, err := orfdisk.NewEngine(serveEngineConfig(filepath.Join(dir, "run")))
	if err != nil {
		return err
	}
	s0 := time.Now()
	st, err := backfill.Run(ctx, eng, files, backfill.Options{ProgressEvery: -1})
	runS := time.Since(s0).Seconds()
	if err != nil {
		eng.Close() //nolint:errcheck
		return fmt.Errorf("backfill.Run: %w", err)
	}
	res.layer("backfill.run_rows_per_s", float64(st.Rows)/runS)
	res.layer("backfill.skipped_rows", float64(st.Skipped))

	// First snapshot of the loaded state, then a fixed live suffix and a
	// copy of the directory while the engine still holds it: the copy is
	// what a kill -9 would have left, and opening it is a recovery.
	s0 = time.Now()
	if err := eng.Snapshot(); err != nil {
		eng.Close() //nolint:errcheck
		return err
	}
	res.layer("engine.snapshot_ms", time.Since(s0).Seconds()*1e3)
	suffix := 0
	for _, m := range h.corpus.Models {
		live := h.corpus.ByModel[m][:h.corpus.DayRows[m][min(h.p.RecoverDays, len(h.corpus.Days))-1][1]]
		for i := 0; i < len(live); i += h.p.ObserveBatch {
			for _, r := range eng.IngestBatch(live[i:min(i+h.p.ObserveBatch, len(live))]) {
				if r.Err != nil {
					eng.Close() //nolint:errcheck
					return r.Err
				}
			}
		}
		suffix += len(live)
	}
	if err := eng.WAL().Sync(); err != nil {
		eng.Close() //nolint:errcheck
		return err
	}
	crashed := filepath.Join(dir, "crashed")
	if err := copyDir(filepath.Join(dir, "run"), crashed); err != nil {
		eng.Close() //nolint:errcheck
		return err
	}
	eng.Close() //nolint:errcheck

	// wal: replay of the crashed directory's log on its own.
	walCopy := filepath.Join(dir, "walcopy")
	if err := copyDir(filepath.Join(crashed, "wal"), walCopy); err != nil {
		return err
	}
	s0 = time.Now()
	w, err := wal.Open(wal.Options{Dir: walCopy})
	if err != nil {
		return err
	}
	replayed := 0
	err = w.Replay(func(uint64, []byte) error { replayed++; return nil })
	w.Close() //nolint:errcheck
	if err != nil {
		return err
	}
	res.layer("wal.replay_rows_per_s", float64(replayed)/time.Since(s0).Seconds())

	s0 = time.Now()
	rec, err := orfdisk.NewEngine(serveEngineConfig(crashed))
	if err != nil {
		return fmt.Errorf("recovering the crashed copy: %w", err)
	}
	res.layer("engine.recover_ms", time.Since(s0).Seconds()*1e3)
	res.Counts["twin_recover_suffix_rows"] = int64(suffix)
	defer rec.Close()

	// smart + gunzip + scan: the reader stages alone.
	var unzipped int64
	s0 = time.Now()
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		zr, err := gzip.NewReader(f)
		if err == nil {
			var n int64
			n, err = io.Copy(io.Discard, zr)
			unzipped += n
		}
		f.Close()
		if err != nil {
			return err
		}
	}
	res.layer("backfill.gunzip_mb_per_s", float64(unzipped)/1e6/time.Since(s0).Seconds())
	s0 = time.Now()
	hist, malformed, err := readRows(h.corpus.HistoryCSV)
	if err != nil {
		return err
	}
	res.layer("smart.fastcsv_rows_per_s", float64(len(hist))/time.Since(s0).Seconds())
	res.layer("smart.csv_row_errors", float64(malformed))
	s0 = time.Now()
	scans, err := backfill.Scan(ctx, files, backfill.Options{})
	if err != nil {
		return err
	}
	var scanned int64
	for _, fs := range scans {
		scanned += fs.Rows
	}
	res.layer("backfill.scan_rows_per_s", float64(scanned)/time.Since(s0).Seconds())

	// engine, predictor and wal under the same rows, one twin each.
	bare, err := orfdisk.NewEngine(serveEngineConfig(filepath.Join(dir, "bare")))
	if err != nil {
		return err
	}
	defer bare.Close()
	const batch = 1024
	s0 = time.Now()
	for i := 0; i < len(hist); i += batch {
		if err := bare.IngestBackfill(hist[i:min(i+batch, len(hist))], nil); err != nil {
			return err
		}
	}
	engineS := time.Since(s0).Seconds()
	preds := map[string]*orfdisk.Predictor{}
	s0 = time.Now()
	for i := range hist {
		p := preds[hist[i].Model]
		if p == nil {
			p = orfdisk.NewPredictor(serveConfig)
			preds[hist[i].Model] = p
		}
		if err := p.Absorb(hist[i].Observation); err != nil {
			return err
		}
	}
	absorbS := time.Since(s0).Seconds()
	log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "bulkwal")})
	if err != nil {
		return err
	}
	defer log.Close()
	payload := walPayload(res)
	payloads := make([][]byte, batch)
	for i := range payloads {
		payloads[i] = payload
	}
	s0 = time.Now()
	for i := 0; i < len(hist); i += batch {
		if _, err := log.AppendBatch(payloads[:min(batch, len(hist)-i)]); err != nil {
			return err
		}
	}
	walS := time.Since(s0).Seconds()
	res.layer("backfill.self_us_per_row", (runS-engineS)/rows*1e6)
	res.layer("engine.backfill_self_us_per_row", (engineS-absorbS-walS)/rows*1e6)
	res.layer("predictor.absorb_us_per_row", absorbS/rows*1e6)
	res.layer("wal.append_us_per_row", walS/rows*1e6)
	// backfill.Run reads on other goroutines while the engine applies, so
	// its self time is only what two cores fail to hide and sits near
	// zero. These are whole passes timed one after another, seconds
	// apart, not twins fed request by request, so the host moves between
	// them: only a twin that clearly did more work than the parent it
	// stands for makes the run incorrect.
	if runS-engineS < -h.p.HandlerTolerance*runS {
		res.mismatch("twin: negative self time: backfill.Run took %.3fs, its engine twin %.3fs", runS, engineS)
	}
	if engineS-absorbS-walS < -h.p.HandlerTolerance*engineS {
		res.mismatch("twin: negative self time: IngestBackfill took %.3fs, Absorb %.3fs + WAL %.3fs", engineS, absorbS, walS)
	}

	// predictor state and the forest codec, on the dominant model.
	p := preds[h.corpus.Models[0]]
	var state bytes.Buffer
	s0 = time.Now()
	if err := p.SaveState(&state); err != nil {
		return err
	}
	res.layer("predictor.save_state_ms", time.Since(s0).Seconds()*1e3)
	res.layer("predictor.state_bytes", float64(state.Len()))
	s0 = time.Now()
	if _, err := orfdisk.LoadPredictorState(bytes.NewReader(state.Bytes())); err != nil {
		return err
	}
	res.layer("predictor.load_state_ms", time.Since(s0).Seconds()*1e3)

	parts := newPartsTwin()
	defer parts.forest.Close()
	for i := range hist {
		if hist[i].Model == h.corpus.Models[0] {
			parts.absorb(hist[i].Observation)
		}
	}
	var enc, raw bytes.Buffer
	m0 := mallocs()
	s0 = time.Now()
	if _, err := parts.forest.WriteTo(&enc); err != nil {
		return err
	}
	res.layer("core.snapshot_encode_ms", time.Since(s0).Seconds()*1e3)
	res.layer("core.snapshot_bytes", float64(enc.Len()))
	s0 = time.Now()
	back, err := core.ReadForest(bytes.NewReader(enc.Bytes()))
	if err != nil {
		return err
	}
	res.layer("core.snapshot_decode_ms", time.Since(s0).Seconds()*1e3)
	res.layer("core.snapshot_allocs", float64(mallocs()-m0))
	back.Close()
	s0 = time.Now()
	fz := parts.forest.Freeze()
	res.layer("core.freeze_ms", time.Since(s0).Seconds()*1e3)
	res.layer("core.nodes", math.Max(res.PerLayer["core.nodes"].Value, float64(fz.Nodes())))

	// frame: the block codec alone, over the forest's raw snapshot bytes.
	if _, err := parts.forest.WriteToRaw(&raw); err != nil {
		return err
	}
	var framed bytes.Buffer
	const rounds = 20
	s0 = time.Now()
	for i := 0; i < rounds; i++ {
		framed.Reset()
		fw := frame.NewWriter(&framed, frame.Flate)
		if _, err := fw.Write(raw.Bytes()); err != nil {
			return err
		}
		if err := fw.Close(); err != nil {
			return err
		}
	}
	mb := float64(raw.Len()) * rounds / 1e6
	res.layer("frame.encode_mb_per_s", mb/time.Since(s0).Seconds())
	res.layer("frame.ratio", float64(raw.Len())/float64(framed.Len()))
	s0 = time.Now()
	for i := 0; i < rounds; i++ {
		fr, err := frame.NewReader(bytes.NewReader(framed.Bytes()))
		if err != nil {
			return err
		}
		if _, err := io.Copy(io.Discard, fr); err != nil {
			return err
		}
	}
	res.layer("frame.decode_mb_per_s", mb/time.Since(s0).Seconds())
	return nil
}
