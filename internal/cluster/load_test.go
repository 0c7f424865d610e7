package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleShapes(t *testing.T) {
	base := LoadConfig{Targets: []string{"http://x"}, Requests: 500, RateHz: 1000, Seed: 7}

	poisson := base
	poisson.Curve = CurvePoisson
	sp := poisson.Schedule()
	if len(sp) != 500 {
		t.Fatalf("schedule length %d", len(sp))
	}
	for i := 1; i < len(sp); i++ {
		if sp[i] < sp[i-1] {
			t.Fatalf("arrival %d (%v) before %d (%v)", i, sp[i], i-1, sp[i-1])
		}
	}
	// Mean rate must land near RateHz: 500 requests at 1000/s ≈ 0.5 s.
	total := sp[len(sp)-1].Seconds()
	if total < 0.3 || total > 0.8 {
		t.Fatalf("poisson run spans %.3f s, want ~0.5 s", total)
	}
	// Seed-pinned.
	again := poisson.Schedule()
	for i := range sp {
		if sp[i] != again[i] {
			t.Fatalf("poisson schedule not deterministic at %d: %v vs %v", i, sp[i], again[i])
		}
	}

	ramp := base
	ramp.Curve = CurveRamp
	sr := ramp.Schedule()
	// The ramp accelerates: the first half must take longer than the
	// second half.
	mid := sr[len(sr)/2]
	first, second := mid, sr[len(sr)-1]-mid
	if first <= second {
		t.Fatalf("ramp not accelerating: first half %v, second half %v", first, second)
	}
	// And its mean rate still lands near RateHz.
	if tot := sr[len(sr)-1].Seconds(); tot < 0.3 || tot > 0.8 {
		t.Fatalf("ramp run spans %.3f s, want ~0.5 s", tot)
	}
}

func TestWorkloadDeterministicAndZipfSkewed(t *testing.T) {
	cfg := LoadConfig{Targets: []string{"http://a", "http://b"}, Requests: 2000, RateHz: 1e6, Seed: 42}
	w1, err := cfg.Workload()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := cfg.Workload()
	if err != nil {
		t.Fatal(err)
	}
	if len(w1) != 2000 {
		t.Fatalf("workload length %d", len(w1))
	}
	rankCount := make(map[int]int)
	bodyByRank := make(map[int]string)
	for i := range w1 {
		if w1[i].At != w2[i].At || w1[i].Target != w2[i].Target || string(w1[i].Body) != string(w2[i].Body) {
			t.Fatalf("workload not deterministic at %d", i)
		}
		rankCount[w1[i].Rank]++
		// Same rank → same canonical request modulo the timeout knob.
		var m map[string]any
		if err := json.Unmarshal(w1[i].Body, &m); err != nil {
			t.Fatalf("request %d body: %v", i, err)
		}
		delete(m, "timeout_s")
		canon, _ := json.Marshal(m)
		if prev, ok := bodyByRank[w1[i].Rank]; ok && prev != string(canon) {
			t.Fatalf("rank %d maps to two different requests", w1[i].Rank)
		}
		bodyByRank[w1[i].Rank] = string(canon)
	}
	// Zipf skew: rank 0 must dominate.
	if rankCount[0] < 2000/4 {
		t.Fatalf("rank 0 drew only %d of 2000 requests — not zipf-skewed", rankCount[0])
	}
	if len(rankCount) < 3 {
		t.Fatalf("only %d distinct ranks drawn", len(rankCount))
	}
	// Catalog bodies must be valid wire requests with the configured
	// level set.
	var req struct {
		Platform struct {
			Rows        int `json:"rows"`
			Cols        int `json:"cols"`
			PaperLevels int `json:"paper_levels"`
		} `json:"platform"`
		TmaxC    float64 `json:"tmax_c"`
		Method   string  `json:"method"`
		TimeoutS float64 `json:"timeout_s"`
	}
	if err := json.Unmarshal(w1[0].Body, &req); err != nil {
		t.Fatal(err)
	}
	if req.Platform.Rows < 1 || req.Platform.PaperLevels != 3 || req.TmaxC == 0 || req.Method == "" {
		t.Fatalf("malformed request body: %s", w1[0].Body)
	}
	if req.TimeoutS < 1 || req.TimeoutS > 10 {
		t.Fatalf("timeout %v outside the default [1, 10] s window", req.TimeoutS)
	}
}

func TestWorkloadRespectsMaxCores(t *testing.T) {
	cfg := LoadConfig{Targets: []string{"http://a"}, Requests: 200, RateHz: 1e6, MaxCores: 2}
	w, err := cfg.Workload()
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range w {
		var req struct {
			Platform struct {
				Rows        int `json:"rows"`
				Cols        int `json:"cols"`
				StackLayers int `json:"stack_layers"`
			} `json:"platform"`
		}
		if err := json.Unmarshal(lr.Body, &req); err != nil {
			t.Fatal(err)
		}
		layers := req.Platform.StackLayers
		if layers == 0 {
			layers = 1
		}
		if cores := req.Platform.Rows * req.Platform.Cols * layers; cores > 2 {
			t.Fatalf("request uses %d cores, cap 2: %s", cores, lr.Body)
		}
	}
	if _, err := (LoadConfig{Targets: []string{"x"}, MaxCores: 1}).Workload(); err == nil {
		t.Fatal("an unsatisfiable core cap must error, not generate an empty run")
	}
	if _, err := (LoadConfig{}).Workload(); err == nil {
		t.Fatal("a config without targets must error")
	}
}

// A stub server exercises the full accounting path: 200s with plan
// bodies, 422s, 429s, and 500s, keyed off the request count.
func TestRunLoadAccounting(t *testing.T) {
	var n atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := n.Add(1)
		switch {
		case i%10 == 0:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"shed","code":"overloaded"}`)
		case i%17 == 0:
			w.WriteHeader(http.StatusUnprocessableEntity)
			fmt.Fprint(w, `{"error":"infeasible","code":"infeasible"}`)
		case i%23 == 0:
			w.WriteHeader(http.StatusInternalServerError)
		default:
			cached := i%2 == 0
			fmt.Fprintf(w, `{"plan":{"p":1},"cached":%v,"shared":false,"key":"k1","elapsed_s":0.001,"source":"local"}`, cached)
		}
	}))
	defer stub.Close()

	cfg := LoadConfig{
		Targets:  []string{stub.URL},
		Requests: 400,
		RateHz:   5000,
		Seed:     3,
	}
	rep, err := RunLoad(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Served + rep.Infeasible + rep.Shed + rep.Errors; got != 400 {
		t.Fatalf("accounting does not sum: %d served + %d infeasible + %d shed + %d errors = %d, want 400",
			rep.Served, rep.Infeasible, rep.Shed, rep.Errors, got)
	}
	if rep.Served == 0 || rep.Shed == 0 || rep.Infeasible == 0 || rep.Errors == 0 {
		t.Fatalf("expected every bucket populated: %+v", rep)
	}
	if rep.ByStatus["200"] != rep.Served || rep.ByStatus["429"] != rep.Shed || rep.ByStatus["422"] != rep.Infeasible {
		t.Fatalf("by_status disagrees with buckets: %v", rep.ByStatus)
	}
	if rep.ByTarget[stub.URL] != 400 {
		t.Fatalf("by_target: %v", rep.ByTarget)
	}
	if rep.CacheHits == 0 || rep.HitRatio <= 0 || rep.HitRatio >= 1 {
		t.Fatalf("hit ratio %v of %d hits implausible", rep.HitRatio, rep.CacheHits)
	}
	if rep.BySource["local"] != rep.Served {
		t.Fatalf("by_source: %v, want %d local", rep.BySource, rep.Served)
	}
	if rep.DistinctKeys != 1 {
		t.Fatalf("distinct keys %d, want 1 (stub serves one key)", rep.DistinctKeys)
	}
	if len(rep.PlanMismatches) != 0 {
		t.Fatalf("stub serves identical plans; mismatches: %v", rep.PlanMismatches)
	}
	if rep.LatencyP50S <= 0 || rep.LatencyMaxS < rep.LatencyP99S || rep.LatencyP99S < rep.LatencyP50S {
		t.Fatalf("latency percentiles disordered: p50=%v p99=%v max=%v", rep.LatencyP50S, rep.LatencyP99S, rep.LatencyMaxS)
	}
	if rep.ElapsedS <= 0 {
		t.Fatal("elapsed not recorded")
	}
}

// Two different plans under one key must be flagged as a replication
// violation — this is the detector the soak relies on.
func TestRunLoadDetectsPlanMismatch(t *testing.T) {
	var n atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := n.Add(1)
		fmt.Fprintf(w, `{"plan":{"p":%d},"cached":false,"shared":false,"key":"same-key","elapsed_s":0}`, i%2)
	}))
	defer stub.Close()
	rep, err := RunLoad(context.Background(), LoadConfig{Targets: []string{stub.URL}, Requests: 20, RateHz: 1e5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PlanMismatches) != 1 || rep.PlanMismatches[0] != "same-key" {
		t.Fatalf("mismatch not detected: %v", rep.PlanMismatches)
	}
	// Degraded responses are exempt: deadline-dependent plans may differ.
	var m atomic.Int64
	stub2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := m.Add(1)
		fmt.Fprintf(w, `{"plan":{"p":%d},"cached":false,"shared":false,"key":"deg-key","elapsed_s":0,"degraded":true,"degraded_reason":"deadline"}`, i%2)
	}))
	defer stub2.Close()
	rep2, err := RunLoad(context.Background(), LoadConfig{Targets: []string{stub2.URL}, Requests: 20, RateHz: 1e5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.PlanMismatches) != 0 {
		t.Fatalf("degraded plans flagged as mismatches: %v", rep2.PlanMismatches)
	}
	if rep2.Degraded != 20 {
		t.Fatalf("degraded count %d, want 20", rep2.Degraded)
	}
}

func TestRunLoadCancellation(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"plan":{"p":1},"cached":false,"shared":false,"key":"k","elapsed_s":0}`)
	}))
	defer stub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	// 10 req/s × 1000 requests would run 100 s; the context cuts it off.
	rep, err := RunLoad(ctx, LoadConfig{Targets: []string{stub.URL}, Requests: 1000, RateHz: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ElapsedS > 5 {
		t.Fatalf("cancelled run took %.1f s", rep.ElapsedS)
	}
	if rep.Served >= 1000 {
		t.Fatal("cancelled run completed every request")
	}
	// Unsent requests still belong to the replica they were planned for.
	if rep.ByTarget[stub.URL] != 1000 || len(rep.ByTarget) != 1 {
		t.Fatalf("by_target after cancel: %v, want all 1000 under %s", rep.ByTarget, stub.URL)
	}
}

// Latency is timed from each request's due time, not from its actual
// send: with one in-flight slot and a 100 ms server, four requests due
// at t≈0 are answered at ≈0.1, 0.2, 0.3 and 0.4 s after they were due,
// and the report must say so rather than 0.1 s for each.
func TestRunLoadLatencyFromDueTime(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(100 * time.Millisecond)
		fmt.Fprint(w, `{"plan":{"p":1},"cached":false,"shared":false,"key":"k","elapsed_s":0}`)
	}))
	defer stub.Close()
	rep, err := RunLoad(context.Background(), LoadConfig{
		Targets: []string{stub.URL}, Requests: 4, RateHz: 1e6, Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 4 {
		t.Fatalf("served %d of 4: %+v", rep.Served, rep)
	}
	if rep.LatencyMaxS < 0.39 {
		t.Fatalf("max latency %.3f s, want >= 0.39 s: the last request waited for three 100 ms responses before it was sent", rep.LatencyMaxS)
	}
	if rep.LatencyP50S < 0.19 {
		t.Fatalf("p50 latency %.3f s, want >= 0.19 s", rep.LatencyP50S)
	}
	if rep.MaxScheduleLagS < 0.29 || rep.MaxScheduleLagS >= rep.LatencyMaxS {
		t.Fatalf("schedule lag %.3f s, want in [0.29, max latency %.3f)", rep.MaxScheduleLagS, rep.LatencyMaxS)
	}
}

// Nearest-rank percentile, pinned property-style over n = 1..20: the
// result must be the smallest sample value with at least a p-fraction
// of the sample at or below it (rank ceil(p·n)), for boundary and
// interior quantiles alike.
func TestPercentileNearestRank(t *testing.T) {
	quantiles := []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}
	for n := 1; n <= 20; n++ {
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i + 1) // value == rank, so answers are readable
		}
		for _, p := range quantiles {
			got := percentile(sorted, p)
			// Independent nearest-rank oracle: smallest v with
			// count(x <= v) >= p*n.
			want := sorted[n-1]
			for _, v := range sorted {
				count := 0
				for _, x := range sorted {
					if x <= v {
						count++
					}
				}
				if float64(count) >= p*float64(n) {
					want = v
					break
				}
			}
			if got != want {
				t.Fatalf("n=%d p=%v: got %v, want %v", n, p, got, want)
			}
		}
	}
	// Degenerate inputs stay in bounds.
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty sample: %v", got)
	}
	if got := percentile([]float64{7}, 0); got != 7 {
		t.Fatalf("p=0 must clamp to the first value: %v", got)
	}
	if got := percentile([]float64{1, 2}, 2); got != 2 {
		t.Fatalf("p>1 must clamp to the last value: %v", got)
	}
}
