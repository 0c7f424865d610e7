package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestGenerationIsAPureFunctionOfTheSeed(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"sweep order": func(s int64) any { return sweepOrder(s) },
		"zipf draws":  func(s int64) any { return zipfDraws(s, 500, 732, zipfS) },
		"arrivals":    func(s int64) any { return poissonSchedule(s, 500, 5*time.Second) },
		"samples":     func(s int64) any { return seedSample(s, 100, 10) },
		"replicas": func(s int64) any {
			out := make([]int, 200)
			for i := range out {
				out[i] = replicaFor(s, i, fleetReplicas)
			}
			return out
		},
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 gave two different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

func TestSweepOrderKeepsEveryPoint(t *testing.T) {
	total := 0
	for i, pts := range sweepOrder(3) {
		s := sweepSpecs[i]
		if want := len(s.tmax) * len(s.methods); len(pts) != want {
			t.Errorf("%s: %d points, want %d", s.cls, len(pts), want)
		}
		total += len(pts)
	}
	if total != 69 {
		t.Errorf("a pass has %d solves, want 69", total)
	}
}

func TestCatalogSizes(t *testing.T) {
	if n := len(mixedCatalog()); n != 732 {
		t.Errorf("mixed catalog has %d keys, want 732", n)
	}
	if n := len(hotCatalog()); n != 18 {
		t.Errorf("hot catalog has %d keys, want 18", n)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	for n := 1; n <= 20; n++ {
		for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64((i*7)%n + 1) // a permutation of 1..n
			}
			got := percentile(append([]float64(nil), xs...), p)
			// Oracle: the smallest sample with at least p·n samples at or
			// below it.
			want := math.Inf(1)
			for _, c := range xs {
				at := 0
				for _, x := range xs {
					if x <= c {
						at++
					}
				}
				if float64(at) >= p*float64(n)-1e-9 && c < want {
					want = c
				}
			}
			if got != want {
				t.Errorf("n=%d p=%v: got %v, want %v", n, p, got, want)
			}
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty input should give 0")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func checkDefs(t *testing.T, what string, defs []metricDef, limit int) {
	t.Helper()
	if len(defs) == 0 || len(defs) > limit {
		t.Errorf("%d %s metrics, want 1..%d", len(defs), what, limit)
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.name) {
			t.Errorf("%s metric name %q is not [A-Za-z0-9_.-]+ of at most 64", what, d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s metric %q has unit %q", what, d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("%s metric %q listed twice", what, d.name)
		}
		seen[d.name] = true
	}
}

func TestMetricNames(t *testing.T) {
	checkDefs(t, "end-to-end", endToEnd, 16)
	checkDefs(t, "per-layer", perLayer(), 128)
}

// TestNamesMatchBenchmarkJSON pins the printed names and units to the
// ones BENCHMARK.json at the repository root declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []metricDef) {
		if !reflect.DeepEqual(defs, got) {
			t.Errorf("%s metrics differ from BENCHMARK.json:\nprinted %v\nlisted  %v", what, defs, got)
		}
	}
	var e2e, layer []metricDef
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bench.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	same("end-to-end", endToEnd, e2e)
	same("per-layer", perLayer(), layer)
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the command", w.Name)
		}
	}
}

func TestFillReportsUnlistedNames(t *testing.T) {
	out, unknown := metricSet{"setup_s": 1.5, "nope": 2}.fill(endToEnd)
	if unknown != "nope" {
		t.Errorf("unknown = %q, want nope", unknown)
	}
	if out["setup_s"].Value != 1.5 || out["setup_s"].Unit != "s" || out["ops_per_s"].Value != 0 {
		t.Errorf("fill rendered %v", out)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.root", Start: 0, End: 100},
		{ID: 2, Name: "solver.AO", Start: 10, End: 50, Parent: 1},
		{ID: 3, Name: "sim.peak", Start: 40, End: 70, Parent: 1},     // overlaps span 2
		{ID: 4, Name: "thermal.x", Start: 20, End: 30, Parent: 2},    // inside span 2
		{ID: 5, Name: "verify.audit", Start: 90, End: -1, Parent: 1}, // never closed
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"bench": 40, "solver": 30, "sim": 30, "thermal": 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	if id := r.begin("x.y", 0, 1); id != 0 {
		t.Errorf("nil recorder returned span id %d", id)
	}
	r.end(0)
	rec := newRecorder()
	id := rec.begin("solver.AO", 0, 1)
	rec.end(id)
	if s := rec.snapshot(); len(s) != 1 || s[0].End < s[0].Start || s[0].layer() != "solver" {
		t.Errorf("recorded %+v", s)
	}
}

// A slow request must not hold back the ones due after it: each is sent
// at its own due time and timed from it.
func TestOpenLoopDoesNotWaitForSlowRequests(t *testing.T) {
	sched := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	outs, _, _ := openLoop(time.Now(), sched, func(i int) (int, []byte) {
		if i == 0 {
			time.Sleep(200 * time.Millisecond)
		}
		return http.StatusOK, nil
	})
	if outs[0].lat < 200*time.Millisecond {
		t.Errorf("the slow request took %v from its due time, want at least 200ms", outs[0].lat)
	}
	for i, o := range outs[1:] {
		if o.lag > 100*time.Millisecond {
			t.Errorf("request %d was sent %v after its due time, behind the slow one", i+1, o.lag)
		}
	}
}

func TestCheckCountersCatchesMismatches(t *testing.T) {
	outs := []outcome{{code: http.StatusOK, cached: true}, {code: http.StatusOK}, {code: http.StatusTooManyRequests}}
	buckets := map[string]int{"served": 2, "shed": 1}
	before := []counters{{requests: 10, hits: 4, misses: 6}}
	agree := []counters{{requests: 13, errors: 1, hits: 5, misses: 8, shed: 1}}
	var ok tally
	checkCounters(before, agree, outs, buckets, &ok, "test")
	if ok.failed != 0 {
		t.Errorf("matching counters failed: %v", ok.notes)
	}
	for name, after := range map[string]counters{
		"a lost request":  {requests: 12, errors: 1, hits: 5, misses: 7, shed: 1},
		"an unseen hit":   {requests: 13, errors: 1, hits: 6, misses: 7, shed: 1},
		"an unseen shed":  {requests: 13, errors: 1, hits: 5, misses: 8, shed: 2},
		"an extra error":  {requests: 13, errors: 2, hits: 5, misses: 8, shed: 1},
		"a degraded plan": {requests: 13, errors: 1, hits: 5, misses: 8, shed: 1, degraded: 1},
	} {
		var bad tally
		checkCounters(before, []counters{after}, outs, buckets, &bad, "test")
		if bad.failed == 0 {
			t.Errorf("%s went unnoticed", name)
		}
	}

	// A fleet: replica 0 forwarded one request to replica 1, which
	// served it locally; replica 1 also served one of its own.
	fleetOuts := []outcome{{code: http.StatusOK, source: "forwarded"}, {code: http.StatusOK, source: "local"}}
	fleetBuckets := map[string]int{"served": 2}
	zero := []counters{{clustered: true}, {clustered: true}}
	good := []counters{{requests: 1, forwarded: 1, clustered: true}, {requests: 2, local: 2, clustered: true}}
	var fleetOK tally
	checkCounters(zero, good, fleetOuts, fleetBuckets, &fleetOK, "fleet")
	if fleetOK.failed != 0 {
		t.Errorf("matching fleet counters failed: %v", fleetOK.notes)
	}
	miscounted := []counters{{requests: 1, forwarded: 1, clustered: true}, {requests: 2, local: 1, clustered: true}}
	var fleetBad tally
	checkCounters(zero, miscounted, fleetOuts, fleetBuckets, &fleetBad, "fleet")
	if fleetBad.failed == 0 {
		t.Error("a replica whose sources do not sum to its 200s went unnoticed")
	}
}

func TestAroundReadsTheBurstsOnEitherSide(t *testing.T) {
	sp := speedometer{bursts: []float64{10, 8, 12, 9}}
	ends := []time.Duration{100, 200, 300, 400}
	for _, c := range []struct {
		from, to time.Duration
		want     float64
	}{
		{150, 250, calibRefMS / 10}, // bursts 0 and 2: the faster is 10
		{210, 290, calibRefMS / 8},  // bursts 1 and 2
		{50, 60, calibRefMS / 10},   // before the first burst
		{450, 500, calibRefMS / 9},  // after the last burst
	} {
		if got := sp.around(ends, c.from, c.to); got != c.want {
			t.Errorf("around(%d, %d) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}
