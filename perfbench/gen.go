package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"thermosc"
	"thermosc/internal/floorplan"
)

// sweepSpec is one platform of the sweep workload and the thresholds and
// methods solved on it. cls names the platform class in per-layer metric
// names; levels 0 selects the library's default (full-range) level set.
type sweepSpec struct {
	cls        string
	rows, cols int
	levels     int
	tmax       []float64
	methods    []thermosc.Method
}

// sweepPoint is one solve of a sweep pass.
type sweepPoint struct {
	tmax   float64
	method thermosc.Method
}

func tmaxGrid(lo, hi, step float64) []float64 {
	var out []float64
	for i := 0; ; i++ {
		t := lo + float64(i)*step
		if t > hi+1e-9 {
			return out
		}
		out = append(out, t)
	}
}

// sweepSpecs is the solver's operating envelope the sweep covers: dense
// small platforms over a fine Tmax grid, the larger dense and sparse
// platforms over a coarser one, and the default level table only up to
// 60 °C (above that one solve takes seconds; see README.md).
var sweepSpecs = []sweepSpec{
	{"2x1-p2", 2, 1, 2, tmaxGrid(50, 80, 2.5), []thermosc.Method{thermosc.MethodAO}},
	{"3x3-p2", 3, 3, 2, tmaxGrid(50, 80, 2.5), []thermosc.Method{thermosc.MethodAO, thermosc.MethodPCO}},
	{"3x3-p3", 3, 3, 3, tmaxGrid(50, 80, 2.5), []thermosc.Method{thermosc.MethodAO}},
	{"4x4-p2", 4, 4, 2, tmaxGrid(50, 80, 5), []thermosc.Method{thermosc.MethodAO}},
	{"8x8-p2", 8, 8, 2, tmaxGrid(50, 80, 5), []thermosc.Method{thermosc.MethodAO}},
	{"3x3-def", 3, 3, 0, []float64{50, 55, 60}, []thermosc.Method{thermosc.MethodAO}},
}

func (s sweepSpec) options() []thermosc.Option {
	if s.levels == 0 {
		return nil
	}
	return []thermosc.Option{thermosc.WithPaperLevels(s.levels)}
}

// sweepOrder returns, per spec, the solve order of one pass: every
// (Tmax, method) point of the spec, permuted by the seed. Platforms keep
// their order so every pass does the same work.
func sweepOrder(seed int64) [][]sweepPoint {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]sweepPoint, len(sweepSpecs))
	for i, s := range sweepSpecs {
		var pts []sweepPoint
		for _, m := range s.methods {
			for _, t := range s.tmax {
				pts = append(pts, sweepPoint{tmax: t, method: m})
			}
		}
		rng.Shuffle(len(pts), func(a, b int) { pts[a], pts[b] = pts[b], pts[a] })
		out[i] = pts
	}
	return out
}

// catalogKey is one distinct canonical request a serving workload draws.
type catalogKey struct {
	req  thermosc.MaximizeRequest
	body []byte // the request body, timeout_s included
}

// hotCatalog is the thermosc-load default catalog: every floorplan
// catalog entry of at most 16 cores × Tmax {60, 70, 80} × {AO, LNS}, 3
// paper levels. Order is the load generator's (platform-major).
func hotCatalog() []thermosc.MaximizeRequest {
	var out []thermosc.MaximizeRequest
	for _, g := range floorplan.Catalog() {
		if g.NumCores() > 16 {
			continue
		}
		spec := thermosc.PlatformSpec{Rows: g.Rows, Cols: g.Cols, PaperLevels: 3, CoreEdgeM: g.CoreEdge, CoreScales: g.Scales}
		if g.Layers > 1 {
			spec.StackLayers = g.Layers
		}
		for _, t := range []float64{60, 70, 80} {
			for _, m := range []thermosc.Method{thermosc.MethodAO, thermosc.MethodLNS} {
				out = append(out, thermosc.MaximizeRequest{Platform: spec, TmaxC: t, Method: m})
			}
		}
	}
	return out
}

// mixedCatalog crosses {2×1, 3×3} × {2, 3 levels} × Tmax 50–80 step 0.5
// × {AO, PCO, LNS}: 732 keys, more than the server's 256-plan LRU.
func mixedCatalog() []thermosc.MaximizeRequest {
	var out []thermosc.MaximizeRequest
	for _, rc := range [][2]int{{2, 1}, {3, 3}} {
		for _, lv := range []int{2, 3} {
			for _, t := range tmaxGrid(50, 80, 0.5) {
				for _, m := range []thermosc.Method{thermosc.MethodAO, thermosc.MethodPCO, thermosc.MethodLNS} {
					spec := thermosc.PlatformSpec{Rows: rc[0], Cols: rc[1], PaperLevels: lv}
					out = append(out, thermosc.MaximizeRequest{Platform: spec, TmaxC: t, Method: m})
				}
			}
		}
	}
	return out
}

// popularityOrder fixes which catalog key is the rank-r key of the zipf
// draws. It is a constant permutation, not the run's seed: every seed then
// sees the same cost profile (which keys are hot), and the seed varies
// only the draw sequence.
func popularityOrder(n int) []int {
	return rand.New(rand.NewSource(20160816)).Perm(n)
}

// encodeCatalog renders each request's body with a fixed timeout_s (0
// leaves the server default).
func encodeCatalog(reqs []thermosc.MaximizeRequest, timeoutS float64) ([]catalogKey, error) {
	out := make([]catalogKey, len(reqs))
	for i, r := range reqs {
		r.TimeoutS = timeoutS
		b, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("encoding catalog key %d: %w", i, err)
		}
		out[i] = catalogKey{req: r, body: b}
	}
	return out, nil
}

// zipfDraws returns n catalog indices whose popularity ranks follow
// zipf(s). The multiset of draws is fixed by n alone — rank r appears
// round(n·p(r)) times, the remainder going to the largest fractions — and
// the seed shuffles their order. Every seed then asks for the same keys
// equally often, so runs differ in order and timing, not in which rare
// keys happen to be drawn.
func zipfDraws(seed int64, n, catalogSize int, s float64) []int {
	weights := make([]float64, catalogSize)
	var total float64
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -s)
		total += weights[r]
	}
	type frac struct {
		rank int
		rest float64
	}
	out := make([]int, 0, n)
	fracs := make([]frac, catalogSize)
	order := popularityOrder(catalogSize)
	for r, w := range weights {
		want := float64(n) * w / total
		whole := int(want)
		for i := 0; i < whole; i++ {
			out = append(out, order[r])
		}
		fracs[r] = frac{r, want - float64(whole)}
	}
	sort.SliceStable(fracs, func(i, j int) bool { return fracs[i].rest > fracs[j].rest })
	for i := 0; len(out) < n; i++ {
		out = append(out, order[fracs[i].rank])
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// poissonSchedule returns the due offsets of n Poisson arrivals within d:
// given their count, the arrival times of a Poisson process are sorted
// independent uniforms over the window.
func poissonSchedule(seed int64, n int, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// seedSample picks k distinct indices of [0, n) by seed.
func seedSample(seed int64, n, k int) []int {
	if k > n {
		k = n
	}
	return rand.New(rand.NewSource(seed)).Perm(n)[:k]
}
