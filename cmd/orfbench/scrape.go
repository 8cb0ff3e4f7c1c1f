package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Scrape is one reading of a Prometheus text endpoint: sample name with
// its label set, exactly as exposed, mapped to the value. Histogram
// buckets are dropped; _sum and _count are kept.
type Scrape map[string]float64

// parseScrape reads Prometheus text exposition. Lines it cannot parse
// are an error: a silently skipped counter would read as "no work".
func parseScrape(text []byte) (Scrape, error) {
	s := Scrape{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		name, val := strings.TrimSpace(line[:i]), line[i+1:]
		if strings.Contains(name, "_bucket{") || strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s[name] = v
	}
	return s, sc.Err()
}

// scrapeMetrics GETs addr/metrics over a throwaway connection.
func scrapeMetrics(ctx context.Context, addr string) (Scrape, error) {
	c := newConn(addr)
	defer c.Close()
	status, body, err := c.Get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", addr, status)
	}
	return parseScrape(body)
}

// Delta returns after-before for every sample in after. A sample absent
// from before counts from zero, which is what a counter that first
// appears mid-run means.
func (before Scrape) Delta(after Scrape) Scrape {
	d := Scrape{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// Sum adds up every sample whose name (the part before any label set)
// is family, optionally keeping only series whose label set contains
// every given `key="value"` fragment.
func (s Scrape) Sum(family string, labels ...string) float64 {
	var total float64
next:
	for k, v := range s {
		name, set, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(set, l) {
				continue next
			}
		}
		total += v
	}
	return total
}

// non2xx adds up http_requests_total series whose code label is not 2xx.
func (s Scrape) non2xx() float64 {
	var total float64
	for k, v := range s {
		if !strings.HasPrefix(k, "http_requests_total{") {
			continue
		}
		if i := strings.Index(k, `code="`); i >= 0 && k[i+6] != '2' {
			total += v
		}
	}
	return total
}
