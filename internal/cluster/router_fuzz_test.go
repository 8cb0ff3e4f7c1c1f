package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// stubTransport answers each request in-process with the handler of the
// stub node its host names, so a fuzz run opens no sockets.
type stubTransport map[string]http.Handler

func (s stubTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		defer r.Body.Close()
	}
	h, ok := s[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no stub node at %s", r.URL.Host)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w.Result(), nil
}

// echoBatch answers /v1/observe/batch with one {"node","item"} entry per
// observation, in order, item being the observation as received.
func echoBatch(node string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Observations []json.RawMessage `json:"observations"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := make([]map[string]any, len(req.Observations))
		for i, o := range req.Observations {
			out[i] = map[string]any{"node": node, "item": o}
		}
		json.NewEncoder(w).Encode(out) //nolint:errcheck
	})
}

// sameJSON reports whether a and b decode to the same value.
func sameJSON(a, b []byte) bool {
	decode := func(b []byte) (any, error) {
		d := json.NewDecoder(bytes.NewReader(b))
		d.UseNumber()
		var v any
		return v, d.Decode(&v)
	}
	va, errA := decode(a)
	vb, errB := decode(b)
	return errA == nil && errB == nil && reflect.DeepEqual(va, vb)
}

// FuzzRouterBatchSplitMerge checks the router's /v1/observe/batch split
// and merge over stub upstreams. For any body encoding/json reads as a
// batch, the reply holds one entry per input item, in input order. An
// item that decodes to a model or serial is answered by the group the
// ring names for its key (the model, else the serial); any other item
// carries an error in its own place. A body that is not a batch is a
// 400. The oracle is encoding/json itself, so a cheaper key scanner in
// the router can be checked against it here.
func FuzzRouterBatchSplitMerge(f *testing.F) {
	stubs := stubTransport{}
	var specs []GroupSpec
	for _, name := range []string{"g0", "g1", "g2"} {
		stubs[name] = echoBatch(name)
		specs = append(specs, GroupSpec{Name: name, Nodes: []string{"http://" + name}})
	}
	rt, err := New(specs, Config{HealthInterval: time.Hour, Client: &http.Client{Transport: stubs}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(rt.Close)
	h := rt.Handler()

	for _, seed := range []string{
		`{"observations":[{"serial":"S0","model":"ST4000DM000"},{"serial":"S1","model":"HGST HMS5C4040BLE640"},{"serial":"S2"}]}`,
		`{"observations":[{"day":3},7,null,"x",{"model":5},{"serial":"Z","model":""},{"MODEL":"M","norm":{"5":1e999}}]}`,
		`{"observations":[{"model":"a","model":"b"},{"serial":"é","values":[1,2,3]}]}`,
		`{"observations":[]}`,
		`{"observations":null}`,
		`{"observations":{}}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/observe/batch", bytes.NewReader(body)))
		var in struct {
			Observations []json.RawMessage `json:"observations"`
		}
		if err := json.Unmarshal(body, &in); err != nil {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("body that is not a batch: status %d, want 400: %s", w.Code, w.Body)
			}
			return
		}
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		var out []struct {
			Node  string          `json:"node"`
			Item  json.RawMessage `json:"item"`
			Error string          `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("reply %q: %v", w.Body, err)
		}
		if len(out) != len(in.Observations) {
			t.Fatalf("%d entries for %d items: %s", len(out), len(in.Observations), w.Body)
		}
		for i, item := range in.Observations {
			var k struct {
				Serial string `json:"serial"`
				Model  string `json:"model"`
			}
			if err := json.Unmarshal(item, &k); err != nil || (k.Model == "" && k.Serial == "") {
				if out[i].Error == "" || out[i].Node != "" {
					t.Fatalf("unroutable item %d (%s) answered %+v", i, item, out[i])
				}
				continue
			}
			key := k.Model
			if key == "" {
				key = k.Serial
			}
			if want := rt.ring.Member(key); out[i].Node != want || out[i].Error != "" {
				t.Fatalf("item %d (%s) answered by %q (error %q), want group %s", i, item, out[i].Node, out[i].Error, want)
			}
			if !sameJSON(out[i].Item, item) {
				t.Fatalf("entry %d echoes %s, want input item %s", i, out[i].Item, item)
			}
		}
	})
}
