// Command orfserve runs the online disk-failure prediction service: an
// HTTP API over a sharded serving engine — one worker goroutine per
// drive model, each owning its online random forest. SMART collectors
// POST daily snapshots; the service learns continuously (no retraining
// jobs, no training pipelines) and answers every snapshot with a live
// risk prediction. Fleet dashboards score without writing through
// POST /v1/predict and /v1/predict/batch: lock-free reads against each
// model's published frozen snapshot, republished every -freeze-every
// applied observations or -freeze-interval of wall time.
//
// With -data the engine is crash-safe: every observation is appended to
// a write-ahead log before it is applied, and periodic snapshot passes
// append every model's state to the same log and truncate what they
// cover, which bounds recovery time. On restart the engine replays the
// log, resuming the exact learned state. SIGINT/SIGTERM trigger a
// graceful shutdown: in-flight requests finish, mailboxes drain, a final
// snapshot pass runs, and the process exits 0.
//
// Observability: every instance serves Prometheus text metrics at
// GET /metrics on the API listener. -metrics-addr moves /metrics (and,
// with -pprof, the net/http/pprof handlers) to a separate admin
// listener so the profiling surface is never exposed on the public
// port. Structured logs go to stderr via log/slog; -log-level selects
// the verbosity (debug logs every request).
//
//	orfserve -addr :8080 -data /var/lib/orfserve -snapshot-every 1m \
//	         -metrics-addr :9090 -pprof -log-level info
//
//	curl -s localhost:8080/v1/observe -d '{
//	  "serial":"Z302T4N9","model":"ST4000DM000","day":812,
//	  "norm":{"5":100,"187":98,"197":100},
//	  "raw":{"5":0,"9":19512,"187":2,"197":0}
//	}'
//	-> {"serial":"Z302T4N9","day":812,"score":0.11,"risky":false,"final":false}
//
//	curl -s localhost:8080/v1/observe/batch -d '{"observations":[...]}'
//	curl -s localhost:8080/v1/predict -d '{
//	  "model":"ST4000DM000",
//	  "norm":{"5":100,"187":98,"197":100},
//	  "raw":{"5":0,"9":19512,"187":2,"197":0}
//	}'
//	-> {"model":"ST4000DM000","score":0.11,"risky":false,
//	    "updates_behind":17,"snapshot_age_seconds":0.4}
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/v1/models
//	curl -s 'localhost:8080/v1/importance?model=ST4000DM000'
//	curl -s localhost:9090/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"orfdisk"
	"orfdisk/internal/metrics"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		trees       = flag.Int("trees", 30, "ensemble size T per drive model")
		lambdaN     = flag.Float64("lambdan", 0.02, "negative-class Poisson rate λn")
		threshold   = flag.Float64("threshold", 0.5, "alarm probability threshold")
		horizon     = flag.Int("horizon", 7, "prediction window in days")
		dataDir     = flag.String("data", "", "durability directory (the write-ahead log); empty = in-memory only")
		snapEvery   = flag.Duration("snapshot-every", time.Minute, "snapshot pass interval: append every model's state to the log (with -data)")
		mailbox     = flag.Int("mailbox", 256, "per-model shard mailbox capacity")
		freezeEvery = flag.Int("freeze-every", 256, "publish a fresh scoring snapshot for /v1/predict after this many applied observations per model (negative disables republication)")
		freezeIval  = flag.Duration("freeze-interval", time.Second, "also publish a fresh scoring snapshot after this much wall time (negative disables the time trigger)")
		batchBytes  = flag.Int64("batch-max-bytes", orfdisk.DefaultBatchMaxBytes, "request body cap for POST /v1/observe/batch (413 above)")
		batchItems  = flag.Int("batch-max-items", orfdisk.DefaultBatchMaxItems, "max observations per POST /v1/observe/batch request (400 above)")
		metricsAddr = flag.String("metrics-addr", "", "separate admin listener for /metrics and pprof; empty serves /metrics on -addr")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof on the admin listener (requires -metrics-addr)")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		replAddr    = flag.String("replicate-addr", "", "leader: listen here for follower replicas and ship the WAL (requires -data); on a -follow instance the listener starts at promotion")
		follow      = flag.String("follow", "", "follower: replicate from the leader's -replicate-addr; this instance becomes a read replica (requires -data)")
		syncAcks    = flag.Int("sync-acks", 0, "synchronous commit: each write blocks until this many followers have fsync-acked it (0 = asynchronous; requires -replicate-addr)")
		syncAckTO   = flag.Duration("sync-ack-timeout", 5*time.Second, "synchronous commit: give up waiting for follower acks after this long (the write stays durable locally; clients get 503 + Retry-After)")
		readyMaxLag = flag.Uint64("ready-max-lag", 256, "follower: /readyz reports not-ready while replication lag exceeds this many records (a record is one append: a run of up to 1024 rows, or a whole model's state)")
		readyMaxSil = flag.Duration("ready-max-silence", 15*time.Second, "follower: /readyz reports not-ready after this long without any leader frame (catches dead streams that freeze the lag at zero)")
	)
	flag.Parse()

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "orfserve: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	if *pprofOn && *metricsAddr == "" {
		logger.Error("-pprof requires -metrics-addr: refusing to expose profiling on the public listener")
		os.Exit(2)
	}
	if (*replAddr != "" || *follow != "") && *dataDir == "" {
		logger.Error("replication requires -data (the WAL is what gets shipped)")
		os.Exit(2)
	}
	if *syncAcks > 0 && *replAddr == "" {
		logger.Error("-sync-acks requires -replicate-addr (followers ack over the ship listener)")
		os.Exit(2)
	}

	reg := metrics.NewRegistry()
	eng, err := orfdisk.NewEngine(orfdisk.EngineConfig{
		Predictor: orfdisk.Config{
			Threshold: *threshold,
			Horizon:   *horizon,
			ORF:       orfdisk.ORFConfig{Trees: *trees, LambdaNeg: *lambdaN},
		},
		DataDir:         *dataDir,
		SnapshotEvery:   *snapEvery,
		Mailbox:         *mailbox,
		FreezeEvery:     *freezeEvery,
		FreezeInterval:  *freezeIval,
		Follower:        *follow != "",
		ReadyMaxLag:     *readyMaxLag,
		ReadyMaxSilence: *readyMaxSil,
		SyncAcks:        *syncAcks,
		SyncAckTimeout:  *syncAckTO,
		Metrics:         reg,
		Logger:          logger,
	})
	if err != nil {
		logger.Error("recovery failed", "err", err)
		os.Exit(1)
	}
	srv := orfdisk.NewServerWithEngine(eng)
	srv.SetBatchLimits(*batchBytes, *batchItems)

	// The engine owns its replication role from here on: it starts the
	// source at promotion, re-points the client on POST /v1/follow, and
	// stops both before its final snapshot pass.
	if *replAddr != "" {
		if err := eng.ShipWAL(*replAddr); err != nil {
			logger.Error("replication listener failed", "addr", *replAddr, "err", err)
			os.Exit(1)
		}
	}
	if *follow != "" {
		if err := eng.Follow(*follow); err != nil {
			logger.Error("starting replication client failed", "leader", *follow, "err", err)
			os.Exit(1)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	var adminSrv *http.Server
	if *metricsAddr != "" {
		// A dedicated mux, never http.DefaultServeMux: importing pprof's
		// handlers explicitly keeps the public listener free of them.
		admin := http.NewServeMux()
		admin.Handle("/metrics", reg.Handler())
		if *pprofOn {
			admin.HandleFunc("/debug/pprof/", pprof.Index)
			admin.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			admin.HandleFunc("/debug/pprof/profile", pprof.Profile)
			admin.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			admin.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		adminSrv = &http.Server{
			Addr:              *metricsAddr,
			Handler:           admin,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("admin listener up", "addr", *metricsAddr, "pprof", *pprofOn)
			if err := adminSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("admin listener failed", "err", err)
			}
		}()
	}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		logger.Info("shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			logger.Warn("shutdown", "err", err)
		}
		if adminSrv != nil {
			if err := adminSrv.Shutdown(shCtx); err != nil {
				logger.Warn("admin shutdown", "err", err)
			}
		}
	}()

	durable := *dataDir
	if durable == "" {
		durable = "disabled"
	}
	logger.Info("listening", "addr", *addr,
		"trees", *trees, "lambda_n", *lambdaN, "threshold", *threshold,
		"horizon_days", *horizon, "durability", durable)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listen failed", "err", err)
		os.Exit(1)
	}
	<-shutdownDone
	// Stop replication, drain shard mailboxes, run the final snapshot
	// pass, close the WAL.
	if err := srv.Close(); err != nil {
		logger.Error("close failed", "err", err)
		os.Exit(1)
	}
	logger.Info("clean shutdown")
}
