// Command orfgen generates a synthetic SMART fleet as a Backblaze-format
// CSV, suitable for feeding cmd/orfmon, cmd/orfload or any external
// tooling.
//
// Usage:
//
//	orfgen -profile STA -scale 0.01 -months 12 > fleet.csv
//	orfgen -profile STB -scale 0.05 -o stb.csv
//
// Fleet-history mode writes the layout real Backblaze archives ship in —
// one CSV per quarter, optionally striped into several files — so the
// backfill pipeline's multi-file chronological merge has something
// honest to chew on:
//
//	orfgen -profile ALL -scale 0.01 -months 12 -history data/ -stripes 4
//
// Add -gzip to emit .csv.gz stripes — the compressed form real archives
// download as, which orfload streams without unpacking.
package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"orfdisk/internal/dataset"
	"orfdisk/internal/smart"
)

func main() {
	var (
		profile = flag.String("profile", "STA", "fleet profile: STA, STB, or ALL (both fleets merged)")
		scale   = flag.Float64("scale", 0.01, "population scale vs the paper's Table 1")
		months  = flag.Int("months", 0, "override window length in months (0 = profile default)")
		seed    = flag.Uint64("seed", 1, "random seed")
		out     = flag.String("o", "", "output file (default stdout)")
		meta    = flag.String("meta", "", "also write ground-truth disk metadata as JSON here")
		history = flag.String("history", "", "fleet-history mode: write per-quarter CSVs into this directory")
		stripes = flag.Int("stripes", 1, "with -history, split each quarter into N files by serial hash")
		gzipOut = flag.Bool("gzip", false, "with -history, gzip-compress each file (.csv.gz), the layout real corpora download as")
	)
	flag.Parse()
	if *gzipOut && *history == "" {
		fmt.Fprintln(os.Stderr, "orfgen: -gzip requires -history")
		os.Exit(2)
	}

	fl, err := newFleet(*profile, *scale, *months, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "orfgen:", err) // the flags name no fleet
		os.Exit(2)
	}

	var n int
	if *history != "" {
		n, err = writeHistory(*history, *stripes, *gzipOut, fl.capacities, fl.stream)
	} else {
		n, err = writeSingle(*out, fl.capacities, fl.stream)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "orfgen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "orfgen: wrote %d samples for %d disks (%s, %d months)\n",
		n, fl.disks, *profile, fl.months)

	if *meta != "" {
		var all []dataset.DiskMeta
		for _, g := range fl.gens {
			all = append(all, g.Disks()...)
		}
		if err := writeMeta(*meta, all); err != nil {
			fmt.Fprintln(os.Stderr, "orfgen:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "orfgen: ground truth written to %s\n", *meta)
	}
}

// fleet is what the -profile, -scale, -months and -seed flags select.
type fleet struct {
	gens       []*dataset.Generator
	capacities map[string]int64 // bytes per drive model, for the capacity column
	disks      int
	months     int
}

func newFleet(profile string, scale float64, months int, seed uint64) (*fleet, error) {
	var profs []dataset.Profile
	switch profile {
	case "STA":
		profs = []dataset.Profile{dataset.STA(scale)}
	case "STB":
		profs = []dataset.Profile{dataset.STB(scale)}
	case "ALL":
		profs = []dataset.Profile{dataset.STA(scale), dataset.STB(scale)}
	default:
		return nil, fmt.Errorf("unknown profile %q (want STA, STB, or ALL)", profile)
	}
	fl := &fleet{capacities: make(map[string]int64, len(profs))}
	for i, p := range profs {
		if months > 0 {
			p = p.WithMonths(months)
		}
		// Offset seeds so the merged fleets draw independent streams.
		g, err := dataset.New(p, seed+uint64(i))
		if err != nil {
			return nil, err
		}
		fl.gens = append(fl.gens, g)
		fl.capacities[p.Model] = int64(p.CapacityTB) * 1_000_000_000_000
		fl.disks += p.TotalDisks()
		if i == 0 {
			fl.months = p.Months
		}
	}
	return fl, nil
}

// stream emits the fleet's samples in day order, the fleets merged.
func (fl *fleet) stream(fn func(smart.Sample) error) error {
	if len(fl.gens) == 1 {
		return fl.gens[0].Stream(fn)
	}
	return dataset.StreamMerged(fl.gens, fn)
}

// writeSingle streams the whole fleet into one CSV (stdout or -o).
func writeSingle(out string, capacities map[string]int64, stream func(func(smart.Sample) error) error) (int, error) {
	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := smart.NewWriter(bw, capacities)
	n := 0
	err := stream(func(s smart.Sample) error {
		n++
		return cw.Write(s)
	})
	if err == nil {
		err = cw.Flush()
	}
	if err == nil {
		err = bw.Flush()
	}
	return n, err
}

// writeHistory splits the stream into per-quarter files, each optionally
// striped by serial hash. Striping puts every day's rows in several
// files at once, so loading the directory chronologically requires a
// real multi-file merge — the same shape as Backblaze's quarterly ZIPs
// unpacked into per-drive-cohort shards. File names sort in
// chronological order (fleet-q000-s00.csv, fleet-q000-s01.csv, ...).
// With gz, each file is gzip-compressed and named .csv.gz — the form
// real corpora download as, and what the loader's inline-decompression
// path consumes directly.
func writeHistory(dir string, stripes int, gz bool, capacities map[string]int64, stream func(func(smart.Sample) error) error) (int, error) {
	if stripes < 1 {
		return 0, fmt.Errorf("-stripes must be >= 1, got %d", stripes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}

	type stripeFile struct {
		f  *os.File
		zw *gzip.Writer
		bw *bufio.Writer
		cw *smart.Writer
	}
	var open []*stripeFile
	quarter := -1
	closeQuarter := func() error {
		for _, sf := range open {
			if sf == nil {
				continue
			}
			if err := sf.cw.Flush(); err != nil {
				return err
			}
			if err := sf.bw.Flush(); err != nil {
				return err
			}
			if sf.zw != nil {
				if err := sf.zw.Close(); err != nil {
					return err
				}
			}
			if err := sf.f.Close(); err != nil {
				return err
			}
		}
		open = nil
		return nil
	}

	n := 0
	err := stream(func(s smart.Sample) error {
		if q := s.Day / 90; q != quarter {
			if err := closeQuarter(); err != nil {
				return err
			}
			quarter = q
			open = make([]*stripeFile, stripes)
		}
		stripe := 0
		if stripes > 1 {
			h := fnv.New32a()
			h.Write([]byte(s.Serial))
			stripe = int(h.Sum32() % uint32(stripes))
		}
		sf := open[stripe]
		if sf == nil {
			name := filepath.Join(dir, fmt.Sprintf("fleet-q%03d-s%02d.csv", quarter, stripe))
			if gz {
				name += ".gz"
			}
			f, err := os.Create(name)
			if err != nil {
				return err
			}
			sf = &stripeFile{f: f}
			var w io.Writer = f
			if gz {
				sf.zw = gzip.NewWriter(f)
				w = sf.zw
			}
			sf.bw = bufio.NewWriterSize(w, 1<<20)
			sf.cw = smart.NewWriter(sf.bw, capacities)
			open[stripe] = sf
		}
		n++
		return sf.cw.Write(s)
	})
	if err == nil {
		err = closeQuarter()
	}
	return n, err
}

func writeMeta(path string, disks []dataset.DiskMeta) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(disks); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
