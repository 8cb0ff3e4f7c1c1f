package orfdisk_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"orfdisk"
	"orfdisk/internal/backfill"
	"orfdisk/internal/cluster"
	"orfdisk/internal/metrics"
	"orfdisk/internal/replica"
)

// TestEveryMetricHasHelp builds every registry the binaries build, the
// way they build it — orfserve as a leader shipping its log and as a
// follower attached to it, both behind the HTTP middleware, orfload's
// engine and loader, and orfrouter over the two nodes — and fails naming
// each family rendered without help text. Tests elsewhere retrieve
// families by name with empty help, so only registries no test touched
// first are checked.
func TestEveryMetricHasHelp(t *testing.T) {
	cfg := orfdisk.Config{ORF: orfdisk.ORFConfig{Trees: 2, Seed: 1}}
	open := func(reg *metrics.Registry, follower bool) *orfdisk.Engine {
		t.Helper()
		eng, err := orfdisk.NewEngine(orfdisk.EngineConfig{Predictor: cfg, DataDir: t.TempDir(), Follower: follower, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}

	leaderReg := metrics.NewRegistry()
	leader := open(leaderReg, false)
	src, err := replica.NewSource("127.0.0.1:0", replica.SourceConfig{WAL: leader.WAL(), Metrics: leaderReg})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	leader.SetAckWaiter(src)
	leader.SetReplicationSourceAddr(src.Addr())
	leaderHTTP := httptest.NewServer(orfdisk.NewServerWithEngine(leader).Handler())
	defer leaderHTTP.Close()

	followerReg := metrics.NewRegistry()
	follower := open(followerReg, true)
	fl, err := replica.StartFollower(src.Addr(), replica.FollowerConfig{Applier: follower, Metrics: followerReg})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	followerHTTP := httptest.NewServer(orfdisk.NewServerWithEngine(follower).Handler())
	defer followerHTTP.Close()

	resp, err := http.Post(leaderHTTP.URL+"/v1/observe", "application/json", strings.NewReader(`{"serial":"Z1","model":"M","day":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %s", resp.Status)
	}
	for deadline := time.Now().Add(10 * time.Second); follower.Replication().Applied < leader.Replication().Applied; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the follower never applied the leader's record")
		}
	}

	// orfload: Run registers the loader's families before it opens a file.
	loadReg := metrics.NewRegistry()
	backfill.Run(context.Background(), open(loadReg, false), []string{filepath.Join(t.TempDir(), "none.csv")}, backfill.Options{Metrics: loadReg})

	rt, err := cluster.New([]cluster.GroupSpec{{Name: "g0", Nodes: []string{leaderHTTP.URL, followerHTTP.URL}}}, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	for _, r := range []struct {
		binary string
		reg    *metrics.Registry
		family string // one the binary's registry must hold, so the walk covers it
	}{
		{"orfserve leader", leaderReg, "replication_records_shipped_total"},
		{"orfserve follower", followerReg, "replica_connected"},
		{"orfload", loadReg, "backfill_rows_total"},
		{"orfrouter", rt.MetricsRegistry(), "route_requests_total"},
	} {
		var buf bytes.Buffer
		if err := r.reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		helped, families := map[string]bool{}, 0
		for _, line := range strings.Split(buf.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
				name, text, _ := strings.Cut(rest, " ")
				helped[name] = strings.TrimSpace(text) != ""
			} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, _, _ := strings.Cut(rest, " ")
				families++
				if !helped[name] {
					t.Errorf("%s: metric family %s has no help text", r.binary, name)
				}
			}
		}
		if _, ok := helped[r.family]; !ok {
			t.Errorf("%s: %d families rendered, none of them %s", r.binary, families, r.family)
		}
	}
}
