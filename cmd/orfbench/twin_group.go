package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"time"

	"orfdisk/internal/cluster"
	"orfdisk/internal/replica"
	"orfdisk/internal/wal"
)

// ackApplier is the follower side of the replica twin: it makes each
// record durable in its own log, as a real follower must before it
// acknowledges, and applies nothing.
type ackApplier struct {
	log  *wal.WAL
	last atomic.Uint64
}

func (a *ackApplier) ApplyReplicated(recs []replica.Record) error {
	for _, r := range recs {
		if err := a.log.AppendAt(r.Seq, r.Payload); err != nil {
			return err
		}
		a.last.Store(r.Seq)
	}
	return a.log.Sync()
}
func (a *ackApplier) ReplicationResume() uint64           { return a.last.Load() }
func (a *ackApplier) ObserveLeaderHead(uint64, time.Time) {}

// groupTwin times the two layers only the mixed workload uses: WAL
// shipping with a synchronous ack (an in-process Source and Follower
// over loopback), and the router with stub upstreams.
func (h *Harness) groupTwin(t *twin) error {
	res := h.res
	// replica: append a request's worth of records, wait for the ack.
	leaderLog, err := wal.Open(wal.Options{Dir: filepath.Join(t.dir, "ship-leader")})
	if err != nil {
		return err
	}
	defer leaderLog.Close()
	followerLog, err := wal.Open(wal.Options{Dir: filepath.Join(t.dir, "ship-follower")})
	if err != nil {
		return err
	}
	defer followerLog.Close()
	src, err := replica.NewSource("127.0.0.1:0", replica.SourceConfig{WAL: leaderLog})
	if err != nil {
		return err
	}
	defer src.Close()
	fl, err := replica.StartFollower(src.Addr(), replica.FollowerConfig{Applier: &ackApplier{log: followerLog}})
	if err != nil {
		return err
	}
	defer fl.Close()
	payloads := make([][]byte, h.p.ObserveBatch)
	for i := range payloads {
		payloads[i] = t.payload
	}
	var rttUS []float64
	for i := 0; i < 60; i++ {
		first, err := leaderLog.AppendBatch(payloads)
		if err != nil {
			return err
		}
		s0 := time.Now()
		if err := src.WaitAcked(first+uint64(len(payloads))-1, 1, 5*time.Second); err != nil {
			return fmt.Errorf("replica twin: %w", err)
		}
		rttUS = append(rttUS, float64(time.Since(s0).Nanoseconds())/1e3)
	}
	res.layer("replica.ack_rtt_us", median(rttUS))
	res.layer("replica.ship_us_per_record", median(rttUS)/float64(len(payloads)))

	// cluster: the router in process, upstreams that answer at once.
	var upstreamNS atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s0 := time.Now()
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		switch r.URL.Path {
		case "/v1/replication":
			io.WriteString(w, `{"role":"leader","applied_seq":1,"lag_records":0,"lag_seconds":0}`) //nolint:errcheck
		default:
			io.WriteString(w, "[]\n") //nolint:errcheck
		}
		upstreamNS.Add(time.Since(s0).Nanoseconds())
	}))
	defer stub.Close()
	rt, err := cluster.New([]cluster.GroupSpec{{Name: "g0", Nodes: []string{stub.URL}}}, cluster.Config{HealthInterval: time.Hour})
	if err != nil {
		return err
	}
	defer rt.Close()
	handler := rt.Handler()
	var routeUS []float64
	for i := range h.twinReqs {
		r := &h.twinReqs[i]
		req := httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body))
		rec := httptest.NewRecorder()
		upstreamNS.Store(0)
		s0 := time.Now()
		handler.ServeHTTP(rec, req)
		d := time.Since(s0).Nanoseconds() - upstreamNS.Load()
		if rec.Code != http.StatusOK {
			return fmt.Errorf("cluster twin: status %d: %.200s", rec.Code, rec.Body.Bytes())
		}
		routeUS = append(routeUS, float64(d)/1e3)
	}
	res.layer("cluster.route_self_us_per_req", median(routeUS))
	ring, err := cluster.NewRing([]string{"g0", "g1", "g2"})
	if err != nil {
		return err
	}
	const lookups = 200000
	s0 := time.Now()
	n := 0
	for i := 0; i < lookups; i++ {
		n += len(ring.Member(h.corpus.Models[i%len(h.corpus.Models)]))
	}
	if n == 0 {
		return fmt.Errorf("cluster twin: ring returned no members")
	}
	res.layer("cluster.ring_lookup_ns", float64(time.Since(s0).Nanoseconds())/lookups)
	return nil
}
