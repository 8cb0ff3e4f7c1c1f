package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed call into a layer's exported boundary. The twins of
// one request run one after another on one goroutine, so a child does
// not sit inside its parent's interval on the clock; Parent names the
// span whose work it repeats a part of, and Req ties the twins of one
// request together. Start and End are nanoseconds since the trace began.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rows   int    `json:"rows,omitempty"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends.
type Tracer struct {
	t0    time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *Tracer) add(name string, req, parent, rows int, start time.Time, d time.Duration) int {
	id := len(t.spans) + 1
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: s, End: s + d.Nanoseconds(), Rows: rows})
	return id
}

// time runs fn as a span.
func (t *Tracer) time(name string, req, parent, rows int, fn func()) int {
	start := time.Now()
	fn()
	return t.add(name, req, parent, rows, start, time.Since(start))
}

// layerTime is one span name's totals over a trace.
type layerTime struct {
	Total  time.Duration // sum of the spans' durations
	Self   time.Duration // Total minus what their child spans cover
	Count  int
	Rows   int
	Parent string // the layer its spans name as parent; "" for a root
}

// selfTimes folds spans by name: a layer's self time is its spans'
// duration minus the duration of the spans that name them as parent.
func selfTimes(spans []Span) map[string]*layerTime {
	byID := make(map[int]*Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	out := map[string]*layerTime{}
	get := func(name string) *layerTime {
		lt := out[name]
		if lt == nil {
			lt = &layerTime{}
			out[name] = lt
		}
		return lt
	}
	for _, s := range spans {
		lt := get(s.Name)
		lt.Total += s.dur()
		lt.Self += s.dur()
		lt.Count++
		lt.Rows += s.Rows
		if p := byID[s.Parent]; p != nil {
			get(p.Name).Self -= s.dur()
			lt.Parent = p.Name
		}
	}
	return out
}

// negativeSelf lists layers whose children add up to more than the
// layer itself by over tolerance, as a share of the parent layer's total
// (of its own, for a root): the sign that a twin is not repeating its
// parent's work faithfully.
func negativeSelf(times map[string]*layerTime, tolerance float64) []string {
	var bad []string
	for name, lt := range times {
		of := lt.Total
		if p := times[lt.Parent]; p != nil {
			of = p.Total
		}
		if float64(lt.Self) < -tolerance*float64(of) {
			bad = append(bad, fmt.Sprintf("%s: self %v of total %v (parent %q: %v)", name, lt.Self, lt.Total, lt.Parent, of))
		}
	}
	sort.Strings(bad)
	return bad
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string                `json:"workload"`
	Seed     uint64                `json:"seed"`
	Spans    []Span                `json:"spans"`
	Layers   map[string]layerJSON  `json:"layers"`
	Budgets  map[string]budgetJSON `json:"budgets"`
}

type layerJSON struct {
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
	Count   int   `json:"count"`
	Rows    int   `json:"rows"`
}

// budgetJSON states how one root span's time divides among the layers
// below it, as shares that add up to the root.
type budgetJSON struct {
	RootNS int64              `json:"root_ns"`
	SumNS  int64              `json:"sum_of_self_ns"`
	Shares map[string]float64 `json:"shares"`
}

// budgetOf states how the root layer's time divides among the layers
// of its tree (root included): self times, which add up to the root's
// total by construction unless a twin went negative.
func budgetOf(times map[string]*layerTime, root string, layers []string) budgetJSON {
	b := budgetJSON{Shares: map[string]float64{}}
	if lt := times[root]; lt != nil {
		b.RootNS = lt.Total.Nanoseconds()
	}
	for _, name := range layers {
		lt := times[name]
		if lt == nil {
			continue
		}
		b.SumNS += lt.Self.Nanoseconds()
		if b.RootNS > 0 {
			b.Shares[name] = float64(lt.Self) / float64(b.RootNS)
		}
	}
	return b
}

// write stores the trace under dir as trace-<workload>.json.
func (t *Tracer) write(dir, workload string, seed uint64, budgets map[string]budgetJSON) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tf := traceFile{Workload: workload, Seed: seed, Spans: t.spans,
		Layers: map[string]layerJSON{}, Budgets: budgets}
	for name, lt := range selfTimes(t.spans) {
		tf.Layers[name] = layerJSON{lt.Total.Nanoseconds(), lt.Self.Nanoseconds(), lt.Count, lt.Rows}
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
