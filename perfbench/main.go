// Command perfbench is the repository benchmark. It runs one workload
// against the public entry points of thermosc, checks every output, and
// prints one JSON line of metrics:
//
//	go run . --workload sweep --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// repeats the workload with spans around each call into a layer and
// prints the per-layer metrics. See README.md for the workloads and what
// each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// tally counts operations attempted and failed; every failed check is
// one failed operation.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 20 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	rec     *recorder // nil unless traced
}

type workload struct {
	why string
	run func(cfg runConfig, t *tally) (metricSet, error)
}

var workloads = map[string]workload{
	"sweep":       {"closed-loop Tmax sweep through Platform.MaximizeContext", runSweep},
	"serve_hot":   {"closed-loop cache-hit traffic through Server.ServeHTTP", runServeHot},
	"serve_mixed": {"open-loop mixed hit/miss traffic through Server.ServeHTTP", runServeMixed},
	"fleet":       {"open-loop traffic over a 3-replica cluster", runFleet},
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: sweep, serve_hot, serve_mixed or fleet")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 15, "measured duration per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	spanDir := flag.String("span-dir", filepath.Join(".bench_build", "spans"), "where a traced run writes its spans")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds ≥ 1 and --trace 0|1\n", names)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	defs := endToEnd
	if *trace == 1 {
		cfg.rec = newRecorder()
		defs = perLayer()
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s (%s), seed %d, %ds, trace %d, GOMAXPROCS %d\n",
		*name, w.why, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	var t tally
	vals, err := w.run(cfg, &t)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cfg.rec != nil {
		spans := cfg.rec.snapshot()
		self := selfTimes(spans)
		for _, l := range layerNames {
			vals["trace.self_ms."+l] = ms(self[l])
		}
		path := filepath.Join(*spanDir, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := cfg.rec.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	}
	// A time read at the reference speed comes with its clock reading
	// under "unscaled.<name>". Those go on a line of their own before the
	// result, so a reader can see when calibration and clock disagree.
	unscaled := map[string]float64{}
	for k, v := range vals {
		if n, ok := strings.CutPrefix(k, "unscaled."); ok {
			unscaled[n] = v
			delete(vals, k)
		}
	}
	if len(unscaled) > 0 {
		b, _ := json.Marshal(map[string]any{"unscaled": unscaled})
		fmt.Println(string(b))
	}
	metrics, unknown := vals.fill(defs)
	if unknown != "" {
		fmt.Fprintf(os.Stderr, "perfbench: metric %q is not listed\n", unknown)
		os.Exit(1)
	}
	for _, n := range t.notes {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", n)
	}
	if t.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		os.Exit(1)
	}
	out := output{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

// liveHeapMB forces a collection and returns the live heap in MB. The
// second collection empties the sync.Pool victim caches the first one
// leaves.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// medianSetup runs build reps times and returns the last build's result
// with the median duration in seconds, read at the reference speed by the
// quiet bursts on either side of each set-up, and as the clock read it.
func medianSetup[T any](reps int, sp *speedometer, build func() (T, error), discard func(T)) (T, float64, float64, error) {
	var (
		last       T
		secs, raws []float64
	)
	prev := sp.quiet(2)
	for i := 0; i < reps; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, 0, err
		}
		raw := time.Since(start).Seconds()
		next := sp.quiet(2)
		secs, raws = append(secs, raw*between(prev, next)), append(raws, raw)
		prev = next
		if i < reps-1 && discard != nil {
			discard(v)
		}
		last = v
	}
	return last, median(secs), median(raws), nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
