// Command orfload backfills an engine data directory from a historical
// Backblaze-format CSV archive — years of daily snapshots split across
// quarterly (possibly striped) files, plain or compressed (.csv.gz and
// .zip archives stream straight through the readers) — at disk speed.
//
// It merges the files into one chronological stream (parallel readers,
// k-way min-day merge), feeds the engine in batches through the
// scoring-free backfill path, and checkpoints a durable cursor so an
// interrupted load (SIGINT, SIGTERM, kill -9, power loss) resumes at
// the last durable row with nothing duplicated or skipped: just run the
// same command again.
//
// Usage:
//
//	orfgen -profile ALL -scale 0.05 -history archive/ -stripes 4 -gzip
//	orfload -scan 'archive/*.csv.gz'      # integrity pre-scan, no ingest
//	orfload -data /var/lib/orfdisk 'archive/*.csv.gz'
//	orfserve -data /var/lib/orfdisk       # serve the backfilled state
//
// Observability: -metrics-addr starts an admin listener with /metrics
// (backfill_rows_per_second, backfill_bytes_per_second,
// backfill_cursor_day, ...) and, with -pprof, the pprof handlers; the
// same rates land in the progress log either way.
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
	"path/filepath"
	"sort"
	"syscall"
	"text/tabwriter"
	"time"

	"orfdisk"
	"orfdisk/internal/backfill"
	"orfdisk/internal/metrics"
	"orfdisk/internal/smart"
)

// runScan is the -scan mode: read every file end to end, print an
// integrity report, touch nothing. Returns the process exit code.
func runScan(files []string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	scans, err := backfill.Scan(ctx, files, backfill.Options{})
	if err != nil && len(scans) == 0 {
		fmt.Fprintf(os.Stderr, "orfload: scan failed: %v\n", err)
		return 1
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "FILE\tROWS\tMB\tFIRST\tLAST\tMALFORMED\tSTATUS")
	var totRows, totBytes, totBad int64
	bad := false
	for _, fs := range scans {
		status := "ok"
		switch {
		case fs.Err != nil:
			status = "ERROR: " + fs.Err.Error()
			bad = true
		case fs.Unsorted:
			status = "UNSORTED"
			bad = true
		}
		first, last := "-", "-"
		if fs.FirstDay >= 0 {
			first, last = smart.DayToDate(fs.FirstDay), smart.DayToDate(fs.LastDay)
		}
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%s\t%s\t%d\t%s\n",
			fs.Name, fs.Rows, float64(fs.Bytes)/1e6, first, last, fs.Malformed, status)
		totRows += fs.Rows
		totBytes += fs.Bytes
		totBad += fs.Malformed
	}
	fmt.Fprintf(w, "TOTAL\t%d\t%.1f\t\t\t%d\t%d files in %s\n",
		totRows, float64(totBytes)/1e6, totBad, len(scans), time.Since(start).Round(time.Millisecond))
	w.Flush()
	if err != nil {
		fmt.Fprintf(os.Stderr, "orfload: scan found problems: %v\n", err)
	}
	if bad || err != nil {
		return 1
	}
	return 0
}

func main() {
	var (
		dataDir     = flag.String("data", "", "engine data directory (required unless -scan; created if missing)")
		scanOnly    = flag.Bool("scan", false, "integrity pre-scan: read every file end to end and report rows, bytes, date range and malformed rows without ingesting anything")
		batchRows   = flag.Int("batch", 1024, "merged rows per engine batch")
		ckptEvery   = flag.Int("checkpoint-every", 16, "batches per durable resume cursor")
		trees       = flag.Int("trees", 0, "override predictor forest size (0 = default)")
		progEvery   = flag.Duration("progress", 5*time.Second, "progress log cadence (negative disables)")
		metricsAddr = flag.String("metrics-addr", "", "admin listener for /metrics and pprof during the load")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof on the admin listener (requires -metrics-addr)")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	)
	flag.Parse()

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "orfload: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	if *dataDir == "" && !*scanOnly {
		logger.Error("-data is required (backfill is pointless without durability)")
		os.Exit(2)
	}
	if *pprofOn && *metricsAddr == "" {
		logger.Error("-pprof requires -metrics-addr")
		os.Exit(2)
	}

	// Positional args are files or globs; expand and dedupe.
	var files []string
	seen := map[string]bool{}
	for _, arg := range flag.Args() {
		matches, err := filepath.Glob(arg)
		if err != nil {
			logger.Error("bad file pattern", "pattern", arg, "err", err)
			os.Exit(2)
		}
		if len(matches) == 0 {
			// Not a pattern (or nothing matched): treat as a literal path
			// so a typo fails loudly at open time instead of silently.
			matches = []string{arg}
		}
		for _, m := range matches {
			if !seen[m] {
				seen[m] = true
				files = append(files, m)
			}
		}
	}
	if len(files) == 0 {
		logger.Error("no input files; usage: orfload -data DIR file.csv ['glob*.csv' ...]")
		os.Exit(2)
	}
	sort.Strings(files)

	if *scanOnly {
		os.Exit(runScan(files))
	}

	reg := metrics.NewRegistry()
	eng, err := orfdisk.NewEngine(orfdisk.EngineConfig{
		Predictor: orfdisk.Config{ORF: orfdisk.ORFConfig{Trees: *trees}},
		DataDir:   *dataDir,
		Metrics:   reg,
		Logger:    logger,
	})
	if err != nil {
		logger.Error("engine recovery failed", "err", err)
		os.Exit(1)
	}

	var adminSrv *http.Server
	if *metricsAddr != "" {
		admin := http.NewServeMux()
		admin.Handle("/metrics", reg.Handler())
		if *pprofOn {
			admin.HandleFunc("/debug/pprof/", pprof.Index)
			admin.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			admin.HandleFunc("/debug/pprof/profile", pprof.Profile)
			admin.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			admin.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		adminSrv = &http.Server{Addr: *metricsAddr, Handler: admin, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("admin listener up", "addr", *metricsAddr, "pprof", *pprofOn)
			if err := adminSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("admin listener failed", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	stats, runErr := backfill.Run(ctx, eng, files, backfill.Options{
		BatchRows:       *batchRows,
		CheckpointEvery: *ckptEvery,
		Metrics:         reg,
		Logger:          logger,
		ProgressEvery:   *progEvery,
	})

	// Close appends every model's state and the final resume point to
	// the log and truncates what they cover, so the next process
	// (orfserve, or a resuming orfload) recovers without replaying every
	// row. On a canceled run this is the graceful
	// half of crash-safety; the WAL alone already covers kill -9.
	closeErr := eng.Close()
	if closeErr != nil {
		logger.Error("engine close failed", "err", closeErr)
	}
	if adminSrv != nil {
		shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		adminSrv.Shutdown(shCtx)
		cancel()
	}

	elapsed := time.Since(start).Seconds()
	logger.Info("backfill finished",
		"rows", stats.Rows, "mb", float64(stats.Bytes)/1e6,
		"rows_per_sec", int64(float64(stats.Rows)/elapsed),
		"mb_per_sec", float64(stats.Bytes)/1e6/elapsed,
		"batches", stats.Batches, "checkpoints", stats.Checkpoints,
		"skipped", stats.Skipped, "resume_skipped", stats.ResumeSkipped,
		"days", fmt.Sprintf("%d..%d", stats.FirstDay, stats.LastDay),
		"elapsed", time.Since(start).Round(time.Millisecond))
	code := exitCode(runErr, closeErr)
	switch {
	case code == 0 && runErr != nil:
		logger.Info("interrupted; durable cursor saved — rerun the same command to resume")
	case runErr != nil && !errors.Is(runErr, context.Canceled):
		logger.Error("backfill failed", "err", runErr)
	}
	os.Exit(code)
}

// exitCode is orfload's exit status after the load returned runErr and
// the engine's Close returned closeErr. An interrupted load exits 0 only
// when Close saved its state: a failed Close is 1 however the load ended.
func exitCode(runErr, closeErr error) int {
	if closeErr != nil || (runErr != nil && !errors.Is(runErr, context.Canceled)) {
		return 1
	}
	return 0
}
