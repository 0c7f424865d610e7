// Command thermosc-bench runs the evaluation-engine benchmark suite and
// emits a machine-readable report (BENCH_ao.json) for the CI regression
// gate.
//
// Usage:
//
//	thermosc-bench [-out BENCH_ao.json] [-baseline BENCH_ao.json] \
//	               [-max-regression 2.0] [-benchtime 1s]
//
// The suite mirrors BenchmarkAOSearch and BenchmarkPeakEval in
// bench_test.go: the AO solver with the sequential reference m-search
// (workers=1) and the worker-pool fan-out (workers=GOMAXPROCS), plus the
// three stable-status peak evaluators (classic, engine-cached, composed),
// plus the degraded path: an AO solve whose context deadline is half the
// median full-solve time, walked through the same truncate-or-floor
// chain the serving layer uses. Its ns/op is bounded by the budget, so
// the entry gates the cost of SERVING under starvation, not the search.
//
// With -baseline the report is compared entry-by-entry against a previous
// run on THREE dimensions: any benchmark whose ns/op, allocs/op, or
// bytes/op exceeds its regression limit (-max-regression, default 2.0;
// -max-alloc-regression and -max-bytes-regression, default 1.5) times the
// baseline fails the gate and the process exits 1. Time is noisy across
// runners, so it gets the loose 2× limit; allocation counts and bytes are
// deterministic properties of the code, so they get the tight 1.5× limit
// that catches an accidentally reintroduced per-candidate allocation long
// before it costs 2× wall clock. Baseline entries missing from the
// current run (or vice versa) are reported but never fail the gate, so
// the suite can grow. A missing baseline file bootstraps the gate: the
// current report is written there and the run exits 0, so a fresh
// checkout's first CI run seeds the baseline instead of failing.
// Baselines written by the v1 schema are accepted (they carry the same
// per-entry fields); the report written back is always v2.
//
// -min-par-speedup gates the measured ao_search seq/par parallel speedup
// — but only when the run itself has GOMAXPROCS > 1; a single-CPU runner
// cannot exhibit a speedup and records gomaxprocs=1 in the report so the
// blind spot is visible instead of silently waved through.
//
// -compare-out writes a before/after markdown table (baseline vs current,
// all three dimensions) for CI to upload as a workflow artifact.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"thermosc/internal/floorplan"
	"thermosc/internal/power"
	"thermosc/internal/schedule"
	"thermosc/internal/sim"
	"thermosc/internal/solver"
	"thermosc/internal/thermal"
)

// Schema identifies the report layout; bump on incompatible changes.
// v2 added the gomaxprocs field and the alloc/bytes gate dimensions; v1
// baselines are still accepted by the gate (same per-entry fields).
const (
	Schema   = "thermosc-bench/v2"
	SchemaV1 = "thermosc-bench/v1"
)

// Entry is one benchmark measurement.
type Entry struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// CrossoverEntry is one point of the dense-vs-sparse comparison: the
// same platform built and evaluated on both algebra backends. Build is
// where the backends diverge asymptotically (O(dim³) eigendecomposition
// vs O(nnz) sparse Cholesky); eval is the warmed per-evaluation cost the
// solvers pay afterwards.
type CrossoverEntry struct {
	Name          string  `json:"name"`
	Dim           int     `json:"dim"` // thermal node count
	DenseBuildNs  float64 `json:"dense_build_ns"`
	SparseBuildNs float64 `json:"sparse_build_ns"`
	DenseEvalNs   float64 `json:"dense_eval_ns"`
	SparseEvalNs  float64 `json:"sparse_eval_ns"`
}

// Report is the full machine-readable output.
type Report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// GOMAXPROCS is the scheduler width the parallel benchmarks actually
	// ran at — the number that decides whether the ao_search speedup is
	// meaningful. A report with gomaxprocs=1 (the historic CI blind spot)
	// cannot see parallel regressions, and the speedup floor is waived.
	GOMAXPROCS int                `json:"gomaxprocs"`
	Benchmarks []Entry            `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups,omitempty"`
	// Crossover is the informational dense-vs-sparse peak-evaluation sweep
	// (not gated: it exists to show WHERE the backends cross, and the
	// answer may legitimately move with the hardware).
	Crossover []CrossoverEntry `json:"crossover,omitempty"`
}

func main() {
	var (
		out      = flag.String("out", "BENCH_ao.json", "report output path ('-' for stdout only)")
		basePth  = flag.String("baseline", "", "baseline report to gate against (empty = no gate)")
		maxReg   = flag.Float64("max-regression", 2.0, "fail if ns/op exceeds this multiple of the baseline")
		maxAlloc = flag.Float64("max-alloc-regression", 1.5, "fail if allocs/op exceeds this multiple of the baseline")
		maxBytes = flag.Float64("max-bytes-regression", 1.5, "fail if bytes/op exceeds this multiple of the baseline")
		minPar   = flag.Float64("min-par-speedup", 0, "fail if the ao_search seq/par speedup falls below this (0 = no floor; waived when GOMAXPROCS is 1)")
		cmpOut   = flag.String("compare-out", "", "write a baseline-vs-current markdown comparison table here")
	)
	flag.Parse()

	rep, err := run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "thermosc-bench: %v\n", err)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "thermosc-bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "thermosc-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d benchmarks, %d CPUs)\n", *out, len(rep.Benchmarks), rep.CPUs)
	}
	for _, e := range rep.Benchmarks {
		fmt.Printf("  %-24s %14.0f ns/op  %8d B/op  %6d allocs/op\n",
			e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}
	for k, v := range rep.Speedups {
		fmt.Printf("  speedup %-16s %.2fx\n", k, v)
	}
	for _, c := range rep.Crossover {
		fmt.Printf("  crossover %-12s dim %4d  build %12.0f / %12.0f ns  eval %10.0f / %10.0f ns (dense/sparse)\n",
			c.Name, c.Dim, c.DenseBuildNs, c.SparseBuildNs, c.DenseEvalNs, c.SparseEvalNs)
	}

	if *minPar > 0 {
		if rep.GOMAXPROCS <= 1 {
			fmt.Printf("min-par-speedup %.2fx waived: GOMAXPROCS=%d cannot exhibit a parallel speedup\n",
				*minPar, rep.GOMAXPROCS)
		} else if sp := rep.Speedups["ao_search"]; sp < *minPar {
			fmt.Fprintf(os.Stderr, "thermosc-bench: FAIL: ao_search parallel speedup %.2fx below the %.2fx floor (GOMAXPROCS=%d)\n",
				sp, *minPar, rep.GOMAXPROCS)
			os.Exit(1)
		} else {
			fmt.Printf("ao_search parallel speedup %.2fx meets the %.2fx floor\n", sp, *minPar)
		}
	}

	if *basePth != "" {
		lim := limits{ns: *maxReg, allocs: *maxAlloc, bytes: *maxBytes}
		bootstrapped, err := gate(rep, *basePth, lim, *cmpOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "thermosc-bench: FAIL: %v\n", err)
			os.Exit(1)
		}
		if bootstrapped {
			fmt.Printf("no baseline at %s: wrote the current report as the new baseline\n", *basePth)
		} else {
			fmt.Printf("gate passed: no benchmark regressed beyond %.1fx ns, %.1fx allocs, %.1fx bytes vs %s\n",
				*maxReg, *maxAlloc, *maxBytes, *basePth)
		}
	} else if *cmpOut != "" {
		if err := writeCompare(*cmpOut, nil, rep); err != nil {
			fmt.Fprintf(os.Stderr, "thermosc-bench: %v\n", err)
			os.Exit(1)
		}
	}
}

// run executes the suite. Benchmark bodies intentionally mirror
// bench_test.go so `go test -bench` and CI measure the same code paths;
// testing.Benchmark grows b.N until each measurement covers ~1 s.
func run() (*Report, error) {
	md, err := thermal.Default(3, 3)
	if err != nil {
		return nil, err
	}
	ls, err := power.PaperLevels(2)
	if err != nil {
		return nil, err
	}
	aoProblem := func(workers int) solver.Problem {
		return solver.Problem{
			Model: md, Levels: ls, TmaxC: 55,
			Overhead: power.DefaultOverhead(), Workers: workers,
		}
	}
	specs := make([]schedule.TwoModeSpec, md.NumCores())
	for i := range specs {
		specs[i] = schedule.TwoModeSpec{
			Low:       power.NewMode(0.6),
			High:      power.NewMode(1.3),
			HighRatio: 0.3 + 0.05*float64(i%8),
		}
	}
	sched, err := schedule.TwoMode(20e-3, specs)
	if err != nil {
		return nil, err
	}
	cache, err := sim.NewPeriodCache(md, sched.Period())
	if err != nil {
		return nil, err
	}
	engine := sim.NewEngine(md)
	if _, _, err := engine.StepUpPeak(sched); err != nil {
		return nil, err
	}

	// The 256-core sparse-backend workload: the largest catalog platform
	// (stacked + heterogeneous), the scale the serving layer now accepts.
	bigGen := floorplan.BigLittleStacked(8, 8, 4, 0.5, 4)
	bigMd, err := thermal.BuildGen(bigGen, power.DefaultModel())
	if err != nil {
		return nil, err
	}
	if !bigMd.SparsePath() {
		return nil, fmt.Errorf("%s unexpectedly on the dense backend", bigGen.Name)
	}
	bigLs, err := power.PaperLevels(3)
	if err != nil {
		return nil, err
	}
	bigSpecs := make([]schedule.TwoModeSpec, bigMd.NumCores())
	for i := range bigSpecs {
		bigSpecs[i] = schedule.TwoModeSpec{
			Low:       power.NewMode(0.6),
			High:      power.NewMode(1.3),
			HighRatio: 0.3 + 0.05*float64(i%8),
		}
	}
	bigSched, err := schedule.TwoMode(20e-3, bigSpecs)
	if err != nil {
		return nil, err
	}
	bigEngine := sim.NewEngine(bigMd)
	if _, _, err := bigEngine.StepUpPeak(bigSched); err != nil {
		return nil, err
	}
	bigProblem := func() solver.Problem {
		return solver.Problem{
			Model: bigMd, Levels: bigLs, TmaxC: 70,
			Overhead: power.DefaultOverhead(), Workers: runtime.GOMAXPROCS(0),
		}
	}

	// Budget for the degraded-path benchmark: half the median full AO
	// solve time on THIS machine, so the deadline lands mid-search on
	// fast and slow hardware alike.
	times := make([]time.Duration, 5)
	for i := range times {
		start := time.Now()
		if _, err := solver.AO(aoProblem(1)); err != nil {
			return nil, err
		}
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	halfBudget := times[len(times)/2] / 2
	if halfBudget <= 0 {
		halfBudget = time.Millisecond
	}

	suite := []struct {
		name string
		body func(b *testing.B)
	}{
		{"ao_search_seq", func(b *testing.B) {
			p := aoProblem(1)
			for i := 0; i < b.N; i++ {
				if _, err := solver.AO(p); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ao_search_par", func(b *testing.B) {
			p := aoProblem(runtime.GOMAXPROCS(0))
			for i := 0; i < b.N; i++ {
				if _, err := solver.AO(p); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ao_anytime_halfbudget", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := aoProblem(1)
				ctx, cancel := context.WithTimeout(context.Background(), halfBudget)
				p.Ctx = ctx
				res, err := solver.AO(p)
				switch {
				case err == nil && res.Schedule != nil:
					// Complete or tagged best-so-far: either is a valid
					// outcome of the anytime contract.
				case err != nil && errors.Is(err, solver.ErrDeadline):
					// Deadline before any incumbent: the chain's floor.
					if _, err := solver.SafeFloor(p); err != nil {
						cancel()
						b.Fatal(err)
					}
				default:
					cancel()
					b.Fatalf("anytime solve broke its contract: res=%+v err=%v", res, err)
				}
				cancel()
			}
		}},
		{"peak_eval_classic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := sim.NewStableCached(md, sched, cache)
				if err != nil {
					b.Fatal(err)
				}
				st.PeakEndOfPeriod()
			}
		}},
		{"peak_eval_engine", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := engine.StepUpPeak(sched); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"peak_eval_composed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := engine.StepUpPeakComposed(sched); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"peak_eval_sparse_256", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := bigEngine.StepUpPeak(bigSched); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ao_search_256", func(b *testing.B) {
			p := bigProblem()
			for i := 0; i < b.N; i++ {
				res, err := solver.AO(p)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Feasible || res.Degraded != solver.DegradedNone {
					b.Fatalf("256-core AO lost feasibility: %+v", res)
				}
			}
		}},
	}

	rep := &Report{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	byName := make(map[string]Entry, len(suite))
	for _, bm := range suite {
		body := bm.body
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			body(b)
		})
		if r.N == 0 {
			return nil, fmt.Errorf("benchmark %s failed (zero iterations)", bm.name)
		}
		e := Entry{
			Name:        bm.name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
		byName[e.Name] = e
	}

	cross, err := crossoverSweep()
	if err != nil {
		return nil, err
	}
	rep.Crossover = cross

	rep.Speedups = map[string]float64{}
	if s, p := byName["ao_search_seq"], byName["ao_search_par"]; p.NsPerOp > 0 {
		rep.Speedups["ao_search"] = s.NsPerOp / p.NsPerOp
	}
	if c, e := byName["peak_eval_classic"], byName["peak_eval_engine"]; e.NsPerOp > 0 {
		rep.Speedups["peak_eval_engine"] = c.NsPerOp / e.NsPerOp
	}
	if c, co := byName["peak_eval_classic"], byName["peak_eval_composed"]; co.NsPerOp > 0 {
		rep.Speedups["peak_eval_composed"] = c.NsPerOp / co.NsPerOp
	}
	return rep, nil
}

// crossoverSweep times one warmed stable-peak evaluation on the SAME
// mesh through both algebra backends across the sizes that bracket
// thermal.SparseCrossoverDim, so the -compare-out table shows where the
// sparse path actually overtakes the dense one on this machine.
func crossoverSweep() ([]CrossoverEntry, error) {
	var out []CrossoverEntry
	for _, rows := range []int{4, 6, 8, 10, 12} {
		g := floorplan.Mesh(rows, rows)
		var build, eval [2]float64
		var dim int
		for k, alg := range []thermal.Algebra{thermal.AlgebraDense, thermal.AlgebraSparse} {
			// Build cost: the backend's one-time factorization (Jacobi
			// eigendecomposition + SPD inverse densely; sparse Cholesky +
			// power-iteration τ on the sparse path).
			buildIters := 3
			if rows >= 10 {
				buildIters = 1 // dense builds are seconds here; one is enough
			}
			start := time.Now()
			var md *thermal.Model
			var err error
			for i := 0; i < buildIters; i++ {
				md, err = thermal.BuildGen(g, power.DefaultModel(), thermal.WithAlgebra(alg))
				if err != nil {
					return nil, fmt.Errorf("crossover %s %s: %w", g.Name, alg, err)
				}
			}
			build[k] = float64(time.Since(start).Nanoseconds()) / float64(buildIters)
			dim = md.NumNodes()

			specs := make([]schedule.TwoModeSpec, md.NumCores())
			for i := range specs {
				specs[i] = schedule.TwoModeSpec{
					Low:       power.NewMode(0.6),
					High:      power.NewMode(1.3),
					HighRatio: 0.3 + 0.05*float64(i%8),
				}
			}
			sched, err := schedule.TwoMode(20e-3, specs)
			if err != nil {
				return nil, err
			}
			eng := sim.NewEngine(md)
			if _, _, err := eng.StepUpPeak(sched); err != nil {
				return nil, fmt.Errorf("crossover %s %s: %w", g.Name, alg, err)
			}
			const evalIters = 10
			start = time.Now()
			for i := 0; i < evalIters; i++ {
				if _, _, err := eng.StepUpPeak(sched); err != nil {
					return nil, err
				}
			}
			eval[k] = float64(time.Since(start).Nanoseconds()) / evalIters
		}
		out = append(out, CrossoverEntry{
			Name: g.Name, Dim: dim,
			DenseBuildNs: build[0], SparseBuildNs: build[1],
			DenseEvalNs: eval[0], SparseEvalNs: eval[1],
		})
	}
	return out, nil
}

// limits are the per-dimension regression multipliers of the gate.
type limits struct {
	ns, allocs, bytes float64
}

// gate compares cur against the baseline report at baselinePath on all
// three dimensions (time, allocation count, allocated bytes). A missing
// baseline is not a failure: the current report is written there as the
// new baseline and gate returns bootstrapped = true, so a fresh
// checkout's first CI run seeds the gate instead of breaking it. When
// cmpOut is non-empty the baseline-vs-current markdown table is written
// there regardless of the verdict, so a failing CI run still uploads the
// numbers that explain it.
func gate(cur *Report, baselinePath string, lim limits, cmpOut string) (bootstrapped bool, err error) {
	data, err := os.ReadFile(baselinePath)
	if errors.Is(err, os.ErrNotExist) {
		b, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(baselinePath, append(b, '\n'), 0o644); err != nil {
			return false, fmt.Errorf("bootstrapping baseline: %w", err)
		}
		if cmpOut != "" {
			if err := writeCompare(cmpOut, nil, cur); err != nil {
				return false, err
			}
		}
		return true, nil
	}
	if err != nil {
		return false, fmt.Errorf("reading baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return false, fmt.Errorf("parsing baseline: %w", err)
	}
	if base.Schema != Schema && base.Schema != SchemaV1 {
		return false, fmt.Errorf("baseline schema %q, want %q (or legacy %q)", base.Schema, Schema, SchemaV1)
	}
	if cmpOut != "" {
		if err := writeCompare(cmpOut, &base, cur); err != nil {
			return false, err
		}
	}
	baseBy := make(map[string]Entry, len(base.Benchmarks))
	for _, e := range base.Benchmarks {
		baseBy[e.Name] = e
	}
	var failures []string
	check := func(name, dim string, cur, base, limit float64) {
		if base <= 0 {
			return // nothing to ratio against (e.g. a zero-alloc baseline)
		}
		ratio := cur / base
		fmt.Printf("  gate %-24s %-6s %6.2fx of baseline (%.0f vs %.0f)\n", name, dim, ratio, cur, base)
		if ratio > limit {
			failures = append(failures,
				fmt.Sprintf("%s %s regressed %.2fx (limit %.1fx)", name, dim, ratio, limit))
		}
	}
	for _, e := range cur.Benchmarks {
		b, ok := baseBy[e.Name]
		if !ok {
			fmt.Printf("  (no baseline for %s — skipping gate)\n", e.Name)
			continue
		}
		check(e.Name, "ns", e.NsPerOp, b.NsPerOp, lim.ns)
		check(e.Name, "allocs", float64(e.AllocsPerOp), float64(b.AllocsPerOp), lim.allocs)
		check(e.Name, "bytes", float64(e.BytesPerOp), float64(b.BytesPerOp), lim.bytes)
	}
	if len(failures) > 0 {
		return false, fmt.Errorf("%d regression(s): %v", len(failures), failures)
	}
	return false, nil
}

// writeCompare renders the baseline-vs-current comparison as a markdown
// table (the CI workflow artifact). A nil baseline renders the current
// run alone.
func writeCompare(path string, base, cur *Report) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# thermosc bench comparison\n\n")
	fmt.Fprintf(&sb, "current: %s %s/%s, %d CPUs, GOMAXPROCS=%d, %s\n\n",
		cur.GoVersion, cur.GOOS, cur.GOARCH, cur.CPUs, cur.GOMAXPROCS, cur.Schema)
	if base == nil {
		fmt.Fprintf(&sb, "_no baseline: first run_\n\n")
		fmt.Fprintf(&sb, "| benchmark | ns/op | allocs/op | B/op |\n|---|---:|---:|---:|\n")
		for _, e := range cur.Benchmarks {
			fmt.Fprintf(&sb, "| %s | %.0f | %d | %d |\n", e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
		}
	} else {
		fmt.Fprintf(&sb, "baseline: %s, %d CPUs, GOMAXPROCS=%d, %s\n\n",
			base.GoVersion, base.CPUs, base.GOMAXPROCS, base.Schema)
		fmt.Fprintf(&sb, "| benchmark | ns/op before | ns/op after | Δ | allocs before | allocs after | B before | B after |\n")
		fmt.Fprintf(&sb, "|---|---:|---:|---:|---:|---:|---:|---:|\n")
		baseBy := make(map[string]Entry, len(base.Benchmarks))
		for _, e := range base.Benchmarks {
			baseBy[e.Name] = e
		}
		for _, e := range cur.Benchmarks {
			b, ok := baseBy[e.Name]
			if !ok {
				fmt.Fprintf(&sb, "| %s | — | %.0f | new | — | %d | — | %d |\n",
					e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
				continue
			}
			delta := "—"
			if b.NsPerOp > 0 {
				delta = fmt.Sprintf("%.2fx", e.NsPerOp/b.NsPerOp)
			}
			fmt.Fprintf(&sb, "| %s | %.0f | %.0f | %s | %d | %d | %d | %d |\n",
				e.Name, b.NsPerOp, e.NsPerOp, delta, b.AllocsPerOp, e.AllocsPerOp, b.BytesPerOp, e.BytesPerOp)
		}
	}
	if len(cur.Speedups) > 0 {
		names := make([]string, 0, len(cur.Speedups))
		for k := range cur.Speedups {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(&sb, "\n")
		for _, k := range names {
			fmt.Fprintf(&sb, "- speedup %s: %.2fx\n", k, cur.Speedups[k])
		}
	}
	if len(cur.Crossover) > 0 {
		fmt.Fprintf(&sb, "\n## dense vs sparse crossover\n\n")
		fmt.Fprintf(&sb, "| platform | dim | dense build | sparse build | dense eval | sparse eval |\n|---|---:|---:|---:|---:|---:|\n")
		crossAt := ""
		for _, c := range cur.Crossover {
			fmt.Fprintf(&sb, "| %s | %d | %.0f | %.0f | %.0f | %.0f |\n",
				c.Name, c.Dim, c.DenseBuildNs, c.SparseBuildNs, c.DenseEvalNs, c.SparseEvalNs)
			if crossAt == "" && c.SparseBuildNs <= c.DenseBuildNs {
				crossAt = fmt.Sprintf("dim %d (%s)", c.Dim, c.Name)
			}
		}
		fmt.Fprintf(&sb, "\n(all ns; build is the one-time backend factorization, eval one warmed stable-peak evaluation)\n")
		if crossAt != "" {
			fmt.Fprintf(&sb, "\nsparse build overtakes dense at %s; the automatic crossover switches at dim %d\n",
				crossAt, thermal.SparseCrossoverDim)
		} else {
			fmt.Fprintf(&sb, "\nsparse build never overtook dense in this sweep; the automatic crossover switches at dim %d\n",
				thermal.SparseCrossoverDim)
		}
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
