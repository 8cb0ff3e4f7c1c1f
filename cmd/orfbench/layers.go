package main

import (
	"context"
	"strings"
)

// perLayer declares the per-layer metrics, named after the modules they
// measure. Every traced run prints all of them; a layer a workload does
// not exercise reads 0, which is itself the check that workloads
// separate layers. Source "scrape" is the delta of the real binaries'
// /metrics (or /v1/stats) across the timed part; "twin" is the traced
// in-process run (twin.go).
var perLayer = []MetricDef{
	// serve: HTTP handlers, JSON decode and encode.
	{Name: "serve.observe_self_us_per_row", Unit: "us", Better: "lower"}, // twin
	{Name: "serve.decode_us_per_row", Unit: "us", Better: "lower"},       // twin
	{Name: "serve.predict_self_us_per_row", Unit: "us", Better: "lower"}, // twin
	{Name: "serve.predict_one_us", Unit: "us", Better: "lower"},          // twin
	{Name: "serve.allocs_per_row", Unit: "count", Better: "lower"},       // twin
	{Name: "serve.request_bytes_per_row", Unit: "B", Better: "lower"},    // twin
	{Name: "serve.http_seconds_per_row", Unit: "s", Better: "lower"},     // scrape
	{Name: "serve.non2xx", Unit: "count", Better: "lower"},               // scrape
	// engine: sharding, mailboxes, durability orchestration.
	{Name: "engine.ingest_self_us_per_row", Unit: "us", Better: "lower"},   // twin
	{Name: "engine.score_self_us_per_row", Unit: "us", Better: "lower"},    // twin
	{Name: "engine.backfill_self_us_per_row", Unit: "us", Better: "lower"}, // twin
	{Name: "engine.recover_ms", Unit: "ms", Better: "lower"},               // twin
	{Name: "engine.snapshot_ms", Unit: "ms", Better: "lower"},              // twin
	{Name: "engine.enqueue_wait_s", Unit: "s", Better: "lower"},            // scrape
	{Name: "engine.busy_total", Unit: "count", Better: "lower"},            // scrape
	{Name: "engine.handler_s", Unit: "s", Better: "lower"},                 // scrape
	{Name: "engine.freezes", Unit: "count", Better: "lower"},               // scrape
	// predictor: Algorithm 2 around one forest.
	{Name: "predictor.ingest_self_us_per_row", Unit: "us", Better: "lower"},
	{Name: "predictor.absorb_us_per_row", Unit: "us", Better: "lower"},
	{Name: "predictor.score_batch_us_per_row", Unit: "us", Better: "lower"},
	{Name: "predictor.freeze_ms", Unit: "ms", Better: "lower"},
	{Name: "predictor.save_state_ms", Unit: "ms", Better: "lower"},
	{Name: "predictor.load_state_ms", Unit: "ms", Better: "lower"},
	{Name: "predictor.state_bytes", Unit: "B", Better: "lower"},
	// core: the online forest, its frozen kernel and its codec.
	{Name: "core.update_us_per_sample", Unit: "us", Better: "lower"},
	{Name: "core.predict_proba_us", Unit: "us", Better: "lower"},
	{Name: "core.score_batch_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "core.freeze_ms", Unit: "ms", Better: "lower"},
	{Name: "core.snapshot_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "core.snapshot_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "core.snapshot_allocs", Unit: "count", Better: "lower"},
	{Name: "core.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "core.nodes", Unit: "count", Better: "higher"},         // /v1/stats
	{Name: "core.trees_replaced", Unit: "count", Better: "lower"}, // /v1/stats
	// labeling: per-disk queues.
	{Name: "labeling.observe_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "labeling.released_pos", Unit: "count", Better: "higher"},
	{Name: "labeling.released_neg", Unit: "count", Better: "higher"},
	{Name: "labeling.pending", Unit: "count", Better: "lower"},
	// smart: projection, scaling, CSV.
	{Name: "smart.project_scale_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "smart.fastcsv_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "smart.csv_row_errors", Unit: "count", Better: "lower"},
	// wal.
	{Name: "wal.append_us_per_row", Unit: "us", Better: "lower"},      // twin
	{Name: "wal.sync_ms", Unit: "ms", Better: "lower"},                // twin
	{Name: "wal.replay_rows_per_s", Unit: "rows/s", Better: "higher"}, // twin
	{Name: "wal.bytes_per_row", Unit: "B", Better: "lower"},           // scrape
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},              // scrape
	{Name: "wal.fsync_s", Unit: "s", Better: "lower"},                 // scrape
	{Name: "wal.rotations", Unit: "count", Better: "lower"},           // scrape
	// frame: the block codec under snapshots and seeds.
	{Name: "frame.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "frame.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "frame.ratio", Unit: "ratio", Better: "higher"},
	// backfill: the bulk loader pipeline.
	{Name: "backfill.run_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "backfill.self_us_per_row", Unit: "us", Better: "lower"},
	{Name: "backfill.gunzip_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "backfill.scan_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "backfill.skipped_rows", Unit: "count", Better: "lower"},
	// replica: WAL shipping and synchronous acks.
	{Name: "replica.ship_us_per_record", Unit: "us", Better: "lower"}, // twin
	{Name: "replica.ack_rtt_us", Unit: "us", Better: "lower"},         // twin
	{Name: "replica.lag_records_max", Unit: "count", Better: "lower"}, // /v1/replication
	{Name: "replica.sync_unacked", Unit: "count", Better: "lower"},    // scrape
	// cluster: the routing tier.
	{Name: "cluster.route_self_us_per_req", Unit: "us", Better: "lower"}, // twin
	{Name: "cluster.ring_lookup_ns", Unit: "ns", Better: "lower"},        // twin
	{Name: "cluster.retries", Unit: "count", Better: "lower"},            // scrape
	{Name: "cluster.route_errors", Unit: "count", Better: "lower"},       // scrape
	// transport: net/http plus loopback, the residual no layer owns.
	{Name: "transport.us_per_req", Unit: "us", Better: "lower"},
	// orfserve: the process as a whole, crashed and restarted on the
	// state the run left (the follower, on the mixed workload).
	{Name: "orfserve.recover_s", Unit: "s", Better: "lower"}, // exec after SIGKILL -> /readyz 200
	{Name: "orfserve.restart_s", Unit: "s", Better: "lower"}, // SIGTERM -> exit -> exec -> /readyz 200
	// sut: every process under test together.
	{Name: "sut.cpu_s_per_mrow", Unit: "s", Better: "lower"}, // utime+stime from /proc per million rows, median over windows
	// loadgen: what the client sees (the issue's throughput and latency
	// metrics; each workload's own operation), and the harness itself,
	// which must stay small.
	{Name: "loadgen.rows_per_s", Unit: "rows/s", Better: "higher"}, // median over 0.5 s windows
	{Name: "loadgen.p50_ms", Unit: "ms", Better: "lower"},          // full-size batch requests
	{Name: "loadgen.tail_ms", Unit: "ms", Better: "lower"},         // median over 100-request chunks of each chunk's p90
	{Name: "loadgen.cpu_frac", Unit: "cores", Better: "lower"},
	{Name: "loadgen.bodies_prepared_ahead", Unit: "count", Better: "higher"},
}

func layerUnit(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("orfbench: undeclared per-layer metric " + name)
}

// nodeScrapes holds one /metrics reading per process under test.
type nodeScrapes map[string]Scrape

func (h *Harness) scrapeAll(ctx context.Context, s *sut) nodeScrapes {
	out := nodeScrapes{}
	for _, n := range s.nodes {
		sc, err := scrapeMetrics(ctx, n.addr)
		if err != nil {
			h.res.note("scrape %s: %v", n.name, err)
			sc = Scrape{}
		}
		out[n.name] = sc
	}
	return out
}

// scrapeLayers turns the /metrics deltas of the timed part into the
// scrape-sourced per-layer metrics. The write path is read on the node
// that takes writes (the single server, or the leader); read-path
// families are summed over every server, since reads fan out.
func (h *Harness) scrapeLayers(s *sut, before, after nodeScrapes, ph *phase) {
	res := h.res
	for _, d := range perLayer {
		res.layer(d.Name, 0)
	}
	servers := Scrape{}
	for _, sv := range s.servers {
		for k, v := range before[sv.name].Delta(after[sv.name]) {
			servers[k] += v
		}
	}
	writer := before[s.servers[0].name].Delta(after[s.servers[0].name])
	rows := float64(max(ph.tally.Rows, 1))

	httpS := servers.Sum("http_request_seconds_sum", `path="/v1/observe/batch"`) +
		servers.Sum("http_request_seconds_sum", `path="/v1/predict/batch"`) +
		servers.Sum("http_request_seconds_sum", `path="/v1/predict"`)
	res.layer("serve.http_seconds_per_row", httpS/rows)
	res.layer("serve.non2xx", servers.non2xx())

	res.layer("engine.enqueue_wait_s", writer.Sum("engine_enqueue_wait_seconds_sum"))
	res.layer("engine.busy_total", writer.Sum("engine_busy_total"))
	res.layer("engine.handler_s", writer.Sum("engine_handler_seconds_sum"))
	res.layer("engine.freezes", writer.Sum("engine_frozen_publishes_total"))

	if acked := rowsOf(ph.applied); acked > 0 {
		res.layer("wal.bytes_per_row", writer.Sum("wal_append_bytes_total")/float64(acked))
	}
	res.layer("wal.fsyncs", writer.Sum("wal_fsync_total"))
	res.layer("wal.fsync_s", writer.Sum("wal_fsync_seconds_sum"))
	res.layer("wal.rotations", writer.Sum("wal_segment_rotations_total"))

	// Gauges: the value after the run, not a delta.
	end := after[s.servers[0].name]
	res.layer("core.nodes", end.Sum("engine_model_nodes"))
	res.layer("core.trees_replaced", writer.Sum("engine_model_trees_replaced"))
	res.layer("labeling.released_pos", writer.Sum("engine_model_positives_seen"))
	res.layer("labeling.released_neg", writer.Sum("engine_model_negatives_seen"))

	res.layer("replica.sync_unacked", writer.Sum("replication_sync_ack_timeouts_total"))
	res.layer("replica.lag_records_max", res.Detail["replica_lag_records_max"].Value)
	for _, n := range s.nodes {
		if n.bin != "orfrouter" {
			continue
		}
		d := before[n.name].Delta(after[n.name])
		res.layer("cluster.retries", d.Sum("router_write_retries_total"))
		var bad float64
		for k, v := range d {
			if strings.HasPrefix(k, "route_requests_total{") && !strings.Contains(k, `outcome="ok"`) {
				bad += v
			}
		}
		res.layer("cluster.route_errors", bad)
	}

	res.layer("orfserve.recover_s", ph.recoverS)
	res.layer("orfserve.restart_s", ph.restartS)
	res.layer("sut.cpu_s_per_mrow", ph.cpuPerM)
	res.layer("loadgen.rows_per_s", ph.rowsPerS)
	res.layer("loadgen.p50_ms", ph.p50MS)
	res.layer("loadgen.tail_ms", ph.tailMS)
	res.layer("loadgen.cpu_frac", ph.loadgenS/ph.sendS)
	res.layer("loadgen.bodies_prepared_ahead", float64(res.Counts["bodies_prepared_ahead"]))
}
