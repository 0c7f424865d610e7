package thermosc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thermosc/internal/floorplan"
)

// TestServeConcurrentRequests hammers one Server with 100 concurrent
// mixed maximize/simulate requests (run under -race in CI). Every
// maximize response for a given method — whether it was the cold solve,
// a singleflight joiner, or a cache hit — must carry byte-identical plan
// bytes, and those bytes must equal a cold solve performed by a fresh
// Server with an empty cache.
func TestServeConcurrentRequests(t *testing.T) {
	srv, ts := newTestServer(t)
	methods := []string{"LNS", "EXS", "AO", "PCO"}

	// Pre-solve one plan on a throwaway server so simulate requests can
	// run from the first goroutine, concurrently with the cold maximizes.
	_, tsPre := newTestServer(t)
	status, b := postJSON(t, tsPre.URL+"/v1/maximize", maximizeBody("LNS"))
	if status != 200 {
		t.Fatalf("pre-solve: status %d: %s", status, b)
	}
	simBody := fmt.Sprintf(`{"platform":{"rows":2,"cols":1,"paper_levels":3},"plan":%s,"periods":2,"samples_per_period":8}`,
		decodeMaximize(t, b).Plan)

	const clients = 100
	plans := make([][]byte, clients) // per-client plan bytes, nil for simulate clients
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%5 == 4 { // every fifth client simulates instead of solving
				status, b := postJSON(t, ts.URL+"/v1/simulate", simBody)
				if status != 200 {
					t.Errorf("client %d simulate: status %d: %s", i, status, b)
				}
				return
			}
			method := methods[i%4]
			status, b := postJSON(t, ts.URL+"/v1/maximize", maximizeBody(method))
			if status != 200 {
				t.Errorf("client %d %s: status %d: %s", i, method, status, b)
				return
			}
			plans[i] = decodeMaximize(t, b).Plan
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Cold reference solves on a fresh server (empty cache, no sharing).
	_, tsCold := newTestServer(t)
	for mi, method := range methods {
		status, b := postJSON(t, tsCold.URL+"/v1/maximize", maximizeBody(method))
		if status != 200 {
			t.Fatalf("cold %s: status %d: %s", method, status, b)
		}
		cold := decodeMaximize(t, b)
		if cold.Cached {
			t.Fatalf("cold %s reported cached=true", method)
		}
		for i := 0; i < clients; i++ {
			if i%5 == 4 || i%4 != mi {
				continue
			}
			if !bytes.Equal(plans[i], cold.Plan) {
				t.Fatalf("%s: client %d plan differs from cold solve:\n%s\n%s", method, i, plans[i], cold.Plan)
			}
		}
	}

	// Sanity on the counters: every maximize was a hit, a shared join,
	// or a miss that performed a solve; the cache ends holding all four.
	st := srv.Stats()
	if st.Cache.Size != len(methods) {
		t.Fatalf("plan cache holds %d entries, want %d: %+v", st.Cache.Size, len(methods), st.Cache)
	}
	if st.Cache.Hits+st.Cache.Misses != 80 { // 80 maximize clients
		t.Fatalf("hits+misses = %d, want 80: %+v", st.Cache.Hits+st.Cache.Misses, st.Cache)
	}
}

// TestServeSingleflightShares drives many concurrent identical requests
// at a slow method and asserts most of them joined the leader's flight
// (shared=true) or hit the cache, i.e. the solve ran far fewer times
// than it was asked for.
func TestServeSingleflightShares(t *testing.T) {
	_, ts := newTestServer(t)
	body := maximizeBody("PCO")
	const clients = 16
	responses := make([]MaximizeResponse, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, b := postJSON(t, ts.URL+"/v1/maximize", body)
			if status != 200 {
				t.Errorf("client %d: status %d: %s", i, status, b)
				return
			}
			responses[i] = decodeMaximize(t, b)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	var solved int
	for i, r := range responses {
		if !bytes.Equal(r.Plan, responses[0].Plan) {
			t.Fatalf("client %d plan differs from client 0", i)
		}
		if !r.Cached && !r.Shared {
			solved++
		}
	}
	if solved == 0 {
		t.Fatal("someone must have performed the cold solve")
	}
	// All identical concurrent requests collapse onto cache hits or
	// shared flights; a few leaders can race past the cache check, but
	// nothing near one solve per client.
	if solved > clients/2 {
		t.Fatalf("%d/%d clients performed a full solve; singleflight is not deduplicating", solved, clients)
	}
}

// catalogMaximizeBodies builds /v1/maximize bodies over the floorplan
// catalog (filtered to small platforms so the differential sweep stays
// fast) at two thresholds each.
func catalogMaximizeBodies(t *testing.T, maxCores int) []string {
	t.Helper()
	var bodies []string
	for _, g := range floorplan.Catalog() {
		if g.NumCores() > maxCores {
			continue
		}
		plat := map[string]any{"rows": g.Rows, "cols": g.Cols, "paper_levels": 3}
		if g.CoreEdge > 0 {
			plat["core_edge_m"] = g.CoreEdge
		}
		if g.Layers > 1 {
			plat["stack_layers"] = g.Layers
		}
		if len(g.Scales) > 0 {
			plat["core_scales"] = g.Scales
		}
		for _, tmax := range []float64{62, 75} {
			b, err := json.Marshal(map[string]any{
				"platform": plat, "tmax_c": tmax, "method": "AO", "timeout_s": 120,
			})
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, string(b))
		}
	}
	if len(bodies) < 6 {
		t.Fatalf("catalog sweep built only %d bodies", len(bodies))
	}
	return bodies
}

// A default-config server taking the whole catalog sweep CONCURRENTLY —
// distinct keys on one platform sharing its engine, distinct platforms
// solving side by side — returns plans byte-identical to one-at-a-time
// solves on a fresh server.
func TestServeCatalogConcurrentMatchesSequential(t *testing.T) {
	bodies := catalogMaximizeBodies(t, 18)
	_, seq := newTestServer(t)
	want := make(map[string][]byte, len(bodies))
	for _, body := range bodies {
		status, b := postJSON(t, seq.URL+"/v1/maximize", body)
		if status != 200 {
			t.Fatalf("sequential solve: status %d: %s", status, b)
		}
		mr := decodeMaximize(t, b)
		if mr.Degraded {
			t.Fatalf("sequential reference degraded (%s) — raise the sweep timeout", mr.DegradedReason)
		}
		want[body] = mr.Plan
	}

	_, conc := newTestServer(t)
	var wg sync.WaitGroup
	got := make([][]byte, len(bodies))
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			status, b := postJSON(t, conc.URL+"/v1/maximize", body)
			if status != 200 {
				t.Errorf("concurrent solve: status %d: %s", status, b)
				return
			}
			got[i] = decodeMaximize(t, b).Plan
		}(i, body)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, body := range bodies {
		if !bytes.Equal(got[i], want[body]) {
			t.Fatalf("body %d %s: concurrent plan differs from sequential:\n%s\nvs\n%s", i, body, got[i], want[body])
		}
	}
}

// Per-request deadlines act individually on a shared platform: a
// request whose deadline is already gone answers at once with a
// degraded plan while slower solves on the same platform (same engine)
// are still running, and those solves still finish complete and equal
// to cold solves.
func TestServeDeadlineCancelsIndividually(t *testing.T) {
	// Three solve slots: one for each slow solve and one for the doomed
	// request, so admission never sheds it.
	srv := NewServer(ServerConfig{SolveConcurrency: 3})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	var entered atomic.Int64
	srv.solveHook = func(Method) { entered.Add(1) }

	slow := []string{clusterBody(4, 4, 2, 70), clusterBody(4, 4, 2, 80)}
	got := make([][]byte, len(slow))
	var finished atomic.Int64
	var wg sync.WaitGroup
	for i, body := range slow {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			defer finished.Add(1)
			status, b := postJSON(t, ts.URL+"/v1/maximize", body)
			if status != 200 {
				t.Errorf("slow solve: status %d: %s", status, b)
				return
			}
			mr := decodeMaximize(t, b)
			if mr.Degraded {
				t.Errorf("slow solve degraded: %s", mr.DegradedReason)
			}
			got[i] = mr.Plan
		}(i, body)
	}
	for entered.Load() < int64(len(slow)) { // both slow solves hold a slot
		time.Sleep(time.Millisecond)
	}

	// Same platform, another threshold, a deadline that has already passed.
	doomed := strings.Replace(clusterBody(4, 4, 2, 75), `"method":"AO"`, `"method":"AO","timeout_s":1e-9`, 1)
	start := time.Now()
	status, b := postJSON(t, ts.URL+"/v1/maximize", doomed)
	elapsed := time.Since(start)
	done := finished.Load()
	if status != 200 {
		t.Fatalf("doomed request: status %d: %s", status, b)
	}
	if mr := decodeMaximize(t, b); !mr.Degraded {
		t.Fatalf("doomed request returned a complete plan under a 1ns deadline: %s", b)
	}
	if done > 0 || elapsed > 5*time.Second {
		t.Fatalf("doomed request took %v and answered after %d slow solve(s) finished — it waited on same-platform work", elapsed, done)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	_, cold := newTestServer(t)
	for i, body := range slow {
		status, b := postJSON(t, cold.URL+"/v1/maximize", body)
		if status != 200 {
			t.Fatalf("cold solve: status %d: %s", status, b)
		}
		if want := decodeMaximize(t, b).Plan; !bytes.Equal(got[i], want) {
			t.Fatalf("slow solve %d differs from a cold solve:\n%s\nvs\n%s", i, got[i], want)
		}
	}
}
