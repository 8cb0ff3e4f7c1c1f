package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// Conn is one closed-loop connection: a private transport capped at a
// single TCP connection, so a request is sent only after the reply to
// the previous one has been read in full.
type Conn struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
	// acked, when set, is advanced by every row a good reply
	// acknowledges; the phase sampler reads it.
	acked *atomic.Int64
}

func newConn(addr string) *Conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
	}
	return &Conn{base: "http://" + addr, client: &http.Client{Transport: tr, Timeout: 20 * time.Second}}
}

func (c *Conn) Close() { c.client.CloseIdleConnections() }

// Post sends body and returns the status and the reply, which is valid
// until the next call on this Conn.
func (c *Conn) Post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

// Get fetches path.
func (c *Conn) Get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.do(req)
}

func (c *Conn) do(req *http.Request) (int, []byte, error) {
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// Lat is one completed request: which prepared request it was, and how
// long the client waited for the full reply.
type Lat struct {
	Rows    int
	Seconds float64
	Path    string
}

// Tally accumulates one connection's outcome over a phase. Failed
// counts operations (rows) lost to a non-2xx reply, a transport error,
// a timeout, or a per-item "error" in an otherwise good reply.
type Tally struct {
	Lats      []Lat
	Requests  int
	Rows      int // rows acknowledged
	Attempted int // rows sent
	Failed    int
	FirstErr  string
}

func (t *Tally) fail(rows int, format string, args ...any) {
	t.Failed += rows
	if t.FirstErr == "" {
		t.FirstErr = fmt.Sprintf(format, args...)
	}
}

func (t *Tally) merge(o *Tally) {
	t.Lats = append(t.Lats, o.Lats...)
	t.Requests += o.Requests
	t.Rows += o.Rows
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	if t.FirstErr == "" {
		t.FirstErr = o.FirstErr
	}
}

var (
	errorKey  = []byte(`"error"`)
	serialKey = []byte(`"serial"`)
)

// send posts one prepared request, times it, and checks the reply
// without decoding it: a 200, one "serial" per row sent, and no
// per-item "error". Scores are checked against the oracle afterwards,
// outside the timed window. Once ctx has ended (the phase timed out
// behind a hung child) the request is counted as failed without being
// sent, so a dead system costs the harness no further waiting.
func (c *Conn) send(ctx context.Context, r *Request, t *Tally) []byte {
	start := time.Now()
	status, reply, err := c.Post(ctx, r.Path, r.Body)
	el := time.Since(start).Seconds()
	t.Requests++
	t.Attempted += r.Rows
	switch {
	case err != nil:
		t.fail(r.Rows, "%s: %v", r.Path, err)
		return nil
	case status != http.StatusOK:
		t.fail(r.Rows, "%s: status %d: %.200s", r.Path, status, reply)
		return nil
	}
	t.Lats = append(t.Lats, Lat{Rows: r.Rows, Seconds: el, Path: r.Path})
	if n := bytes.Count(reply, serialKey); n != r.Rows {
		t.fail(r.Rows, "%s: reply carries %d items, sent %d", r.Path, n, r.Rows)
		return reply
	}
	if bad := bytes.Count(reply, errorKey); bad > 0 {
		t.fail(bad, "%s: %d items failed: %.200s", r.Path, bad, reply)
		t.Rows += r.Rows - bad
		return reply
	}
	t.Rows += r.Rows
	if c.acked != nil {
		c.acked.Add(int64(r.Rows))
	}
	return reply
}

// runSerial sends reqs in order on one connection: the order a model's
// observations must keep.
func (c *Conn) runSerial(ctx context.Context, reqs []Request, t *Tally) {
	for i := range reqs {
		c.send(ctx, &reqs[i], t)
	}
}

// runShared lets every connection pull the next request from one list,
// for reads whose order does not matter. onReply, when set, sees each
// good reply before the connection moves on.
func runShared(ctx context.Context, conns []*Conn, reqs []Request, tallies []*Tally, onReply func(i int, reply []byte)) {
	var next atomic.Int64
	done := make(chan struct{}, len(conns))
	for k, c := range conns {
		go func(c *Conn, t *Tally) {
			defer func() { done <- struct{}{} }()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				reply := c.send(ctx, &reqs[i], t)
				if reply != nil && onReply != nil {
					onReply(i, reply)
				}
			}
		}(c, tallies[k])
	}
	for range conns {
		<-done
	}
}

// latencyMS summarises request latencies in milliseconds: the median,
// and the highest percentile with at least ten samples beyond it.
type latencyMS struct {
	N       int
	P50     float64
	Tail    float64
	TailPct int // per mille: 900 for p90
	Chunks  int // chunks the tail is the median over
	// Whole is the tail percentile of the whole sample taken at once, at
	// WholePct per mille: what one slow stretch moves.
	Whole    float64
	WholePct int
}

// tailChunk is the sample count the tail is taken over at a time. A
// busy neighbour slows a stretch of a run, not a scattered tenth of its
// requests, so the tail of the whole run is the tail of its worst
// stretch; the median of per-stretch tails is the steady-state tail.
// 100 samples is the fewest that support a p90 (ten beyond it).
const tailChunk = 100

// summarize keeps requests of exactly fullRows rows on path (partial
// end-of-day batches would make the distribution a mixture), in
// completion order, and reports their latency: the median, and the
// median over consecutive chunks of each chunk's tail percentile.
func summarize(lats []Lat, path string, fullRows int) latencyMS {
	var ms []float64
	for _, l := range lats {
		if l.Path == path && (fullRows == 0 || l.Rows == fullRows) {
			ms = append(ms, l.Seconds*1e3)
		}
	}
	var tails []float64
	var pct int
	for i := 0; i < len(ms); i += tailChunk {
		end := i + tailChunk
		if len(ms)-end < tailChunk {
			end = len(ms) // the remainder joins the last chunk
		}
		chunk := append([]float64(nil), ms[i:end]...)
		sort.Float64s(chunk)
		p, v := tailPercentile(chunk)
		if i == 0 {
			pct = p
		}
		if p == pct {
			tails = append(tails, v)
		}
		if end == len(ms) {
			break
		}
	}
	sort.Float64s(ms)
	wp, whole := tailPercentile(ms)
	return latencyMS{N: len(ms), P50: percentile(ms, 500), Tail: median(tails), TailPct: pct, Chunks: len(tails), Whole: whole, WholePct: wp}
}
