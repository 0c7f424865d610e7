package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"thermosc"
)

// Serving workload constants. zipfS is the key skew of every serving
// workload, the default of cluster.LoadConfig and thermosc-load. At the
// open loops' rates on a 2-CPU machine the admission queue builds now
// and then but nothing is shed, in one server or in three replicas
// sharing the same CPUs.
const (
	zipfS          = 1.2
	hotTail        = 0.99
	openTail       = 0.99
	serveMixedRate = 150.0
	fleetRate      = 150.0
	openTimeoutS   = 10.0
	warmKeys       = 48
	fleetReplicas  = 3
	libraryChecks  = 3
)

// respWriter is the smallest http.ResponseWriter: the benchmark calls
// ServeHTTP in process and keeps the status and body.
type respWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (w *respWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.buf.Write(b)
}

// call serves one request in process and returns the status and body.
func call(h http.Handler, method, path string, body []byte) (int, []byte) {
	r, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	var w respWriter
	h.ServeHTTP(&w, r)
	return w.code, w.buf.Bytes()
}

// libPlatform builds the library platform a catalog spec describes, for
// checking served plans against the library's own.
func libPlatform(spec thermosc.PlatformSpec) (*thermosc.Platform, error) {
	var opts []thermosc.Option
	if spec.PaperLevels > 0 {
		opts = append(opts, thermosc.WithPaperLevels(spec.PaperLevels))
	}
	if spec.CoreEdgeM > 0 {
		opts = append(opts, thermosc.WithCoreEdge(spec.CoreEdgeM))
	}
	if len(spec.CoreScales) > 0 {
		opts = append(opts, thermosc.WithCoreScales(spec.CoreScales...))
	}
	if spec.StackLayers > 1 {
		opts = append(opts, thermosc.WithStackedLayers(spec.StackLayers))
	}
	return thermosc.New(spec.Rows, spec.Cols, opts...)
}

// libraryPlan is the bytes a server must serve for req: the library's
// plan with its wall-clock field zeroed.
func libraryPlan(req thermosc.MaximizeRequest) ([]byte, error) {
	plat, err := libPlatform(req.Platform)
	if err != nil {
		return nil, err
	}
	plan, err := plat.MaximizeContext(context.Background(), req.Method, req.TmaxC, 0)
	if err != nil {
		return nil, err
	}
	plan.Elapsed = 0
	return json.Marshal(plan)
}

// checkLibrary compares a seed-chosen sample of served plans with the
// library's.
func checkLibrary(seed int64, cat []catalogKey, book map[int][]byte, t *tally) {
	keys := make([]int, 0, len(book))
	for k := range cat {
		if book[k] != nil && !bytes.Equal(book[k], infeasibleMark) {
			keys = append(keys, k)
		}
	}
	for _, i := range seedSample(seed, len(keys), libraryChecks) {
		k := keys[i]
		t.attempted++
		want, err := libraryPlan(cat[k].req)
		if err != nil {
			t.fail("library plan for %s: %v", cat[k].body, err)
			continue
		}
		if !bytes.Equal(want, book[k]) {
			t.fail("served plan for %s differs from the library's", cat[k].body)
		}
	}
}

// infeasibleMark stands in the plan book for a key the server refused
// with 422.
var infeasibleMark = []byte("infeasible")

// outcome is one answered request as the checks and metrics need it.
type outcome struct {
	key      int
	lat      time.Duration // from due time (open loop) or send (closed loop)
	lag      time.Duration // dispatch minus due time (open loop only)
	code     int
	cached   bool
	shared   bool
	degraded bool
	source   string
	elapsedS float64
	factor   float64 // reads lat at the reference speed (open loop only)
}

// classify decodes one response, files it in the plan book, and counts a
// failure for anything but a complete plan whose bytes match every
// earlier answer for the same key. It files every request in exactly one
// of the served, infeasible, shed or error buckets, which checkCounters
// compares with the servers' own counts.
func classify(o *outcome, body []byte, book map[int][]byte, buckets map[string]int, t *tally, what string) {
	t.attempted++
	switch o.code {
	case http.StatusOK:
		buckets["served"]++
	case http.StatusUnprocessableEntity:
		// A threshold no mode fits under is refused; that is the right
		// answer as long as the key is refused every time.
		buckets["infeasible"]++
		if prev := book[o.key]; prev == nil {
			book[o.key] = infeasibleMark
		} else if !bytes.Equal(prev, infeasibleMark) {
			t.fail("%s: key %d refused as infeasible after it was served", what, o.key)
		}
		return
	case http.StatusTooManyRequests:
		buckets["shed"]++
		t.fail("%s: key %d shed", what, o.key)
		return
	default:
		buckets["error"]++
		t.fail("%s: key %d status %d: %s", what, o.key, o.code, body)
		return
	}
	var resp thermosc.MaximizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.fail("%s: key %d: decoding response: %v", what, o.key, err)
		return
	}
	o.cached, o.shared, o.degraded, o.source, o.elapsedS = resp.Cached, resp.Shared, resp.Degraded, resp.Source, resp.ElapsedS
	if resp.Degraded {
		t.fail("%s: key %d degraded (%s)", what, o.key, resp.DegradedReason)
		return
	}
	if prev := book[o.key]; prev == nil {
		book[o.key] = append([]byte(nil), resp.Plan...)
	} else if !bytes.Equal(prev, resp.Plan) {
		t.fail("%s: key %d served different plan bytes", what, o.key)
	}
}

// counters is the part of Server.Stats() the client's accounting is
// checked against.
type counters struct {
	requests, errors, hits, misses, shed, degraded uint64
	local, peer, forwarded                         uint64 // cluster serve sources
	clustered                                      bool
}

func (c counters) minus(d counters) counters {
	return counters{
		c.requests - d.requests, c.errors - d.errors, c.hits - d.hits, c.misses - d.misses,
		c.shed - d.shed, c.degraded - d.degraded, c.local - d.local, c.peer - d.peer, c.forwarded - d.forwarded, c.clustered,
	}
}

func (c counters) plus(d counters) counters {
	return counters{
		c.requests + d.requests, c.errors + d.errors, c.hits + d.hits, c.misses + d.misses,
		c.shed + d.shed, c.degraded + d.degraded, c.local + d.local, c.peer + d.peer, c.forwarded + d.forwarded, c.clustered,
	}
}

// readCounters returns each server's counters once none of them has a
// request in flight, so every handler has finished its accounting.
func readCounters(srvs []*thermosc.Server) ([]counters, error) {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		out := make([]counters, len(srvs))
		busy := false
		for i, srv := range srvs {
			st := srv.Stats()
			busy = busy || st.InFlight > 0
			m := st.Requests["maximize"]
			out[i] = counters{
				requests: m.Count, errors: m.Errors, hits: st.Cache.Hits, misses: st.Cache.Misses,
				shed: st.Resilience.ShedTotal, degraded: st.Resilience.DegradedServed,
			}
			if c := st.Cluster; c != nil {
				out[i].local, out[i].peer, out[i].forwarded = c.ServedLocal, c.ServedPeerFetch, c.ServedForwarded
				out[i].clustered = true
			}
		}
		if !busy {
			return out, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("requests still in flight 10 s after the run")
		}
	}
}

// checkCounters compares the client's buckets for outs with the change
// in the servers' counters over the same requests. One server must count
// every request, answer the served ones with 200 and the rest with an
// error, and count a cache hit for every cached answer. A fleet counts a
// forwarded request at the proxy and again at its owner, so there each
// replica's served sources must sum to its 200s, the fleet's local and
// peer-fetch serves must equal the client's served bucket, and its
// forwarded serves the answers marked forwarded. Shed and degraded
// answers are counted once, where they happen, either way.
func checkCounters(before, after []counters, outs []outcome, buckets map[string]int, t *tally, what string) {
	clustered := after[0].clustered
	var d counters
	for i := range after {
		n := after[i].minus(before[i])
		if clustered && n.local+n.peer+n.forwarded != n.requests-n.errors {
			t.fail("%s: replica %d served %d by source but answered %d with 200", what, i, n.local+n.peer+n.forwarded, n.requests-n.errors)
		}
		d = d.plus(n)
	}
	var cached, degraded, forwarded uint64
	for _, o := range outs {
		if o.cached {
			cached++
		}
		if o.degraded {
			degraded++
		}
		if o.source == "forwarded" {
			forwarded++
		}
	}
	type pair struct {
		what           string
		server, client uint64
	}
	pairs := []pair{
		{"shed", d.shed, uint64(buckets["shed"])},
		{"degraded", d.degraded, degraded},
	}
	if clustered {
		pairs = append(pairs,
			pair{"local and peer-fetch serves", d.local + d.peer, uint64(buckets["served"])},
			pair{"forwarded serves", d.forwarded, forwarded})
	} else {
		pairs = append(pairs,
			pair{"requests", d.requests, uint64(len(outs))},
			pair{"200 answers", d.requests - d.errors, uint64(buckets["served"])},
			pair{"cache hits", d.hits, cached},
			pair{"hits and misses", d.hits + d.misses, uint64(len(outs))})
	}
	for _, p := range pairs {
		if p.server != p.client {
			t.fail("%s: the servers counted %d %s, the client %d", what, p.server, p.what, p.client)
		}
	}
}

// bookThroughput sums plan throughput over keys, decoding served bytes.
func bookThroughput(book map[int][]byte, keys []int, t *tally) float64 {
	var sum float64
	for _, k := range keys {
		if bytes.Equal(book[k], infeasibleMark) {
			continue
		}
		var p thermosc.Plan
		if err := json.Unmarshal(book[k], &p); err != nil {
			t.fail("decoding plan of key %d: %v", k, err)
			continue
		}
		sum += p.Throughput
	}
	return sum
}

// warm solves keys one after another through h and files their plans.
func warm(h func(i int) http.Handler, cat []catalogKey, keys []int, book map[int][]byte, t *tally) error {
	buckets := map[string]int{}
	failed := t.failed
	for n, k := range keys {
		o := outcome{key: k}
		var body []byte
		o.code, body = call(h(n), http.MethodPost, "/v1/maximize", cat[k].body)
		classify(&o, body, book, buckets, t, "warm-up")
	}
	if t.failed > failed {
		return fmt.Errorf("warm-up failed: %v", t.notes)
	}
	return nil
}

// ---- serve_hot: closed loop of cache hits ----

type hotSetup struct {
	srv    *thermosc.Server
	bodies [][]byte // request body per key
	book   map[int][]byte
	prefix [][]byte // expected start of a cache-hit response, per key
}

func buildHot(cat []catalogKey, t *tally) func() (*hotSetup, error) {
	return func() (*hotSetup, error) {
		hs := &hotSetup{srv: thermosc.NewServer(thermosc.ServerConfig{}), book: map[int][]byte{}}
		for _, c := range cat {
			hs.bodies = append(hs.bodies, c.body)
		}
		all := make([]int, len(cat))
		for i := range all {
			all[i] = i
		}
		if err := warm(func(int) http.Handler { return hs.srv }, cat, all, hs.book, t); err != nil {
			return nil, err
		}
		// A hit carries the cached bytes verbatim, then the fixed flags
		// and key digest, then the per-request elapsed_s. Matching this
		// prefix checks the whole plan without decoding it.
		for i := range cat {
			code, body := call(hs.srv, http.MethodPost, "/v1/maximize", cat[i].body)
			var resp thermosc.MaximizeResponse
			if err := json.Unmarshal(body, &resp); code != http.StatusOK || err != nil || !resp.Cached {
				return nil, fmt.Errorf("hot key %d not served from cache: %d %v", i, code, err)
			}
			p := fmt.Sprintf(`{"plan":%s,"cached":true,"shared":false,"key":%q,"elapsed_s":`, hs.book[i], resp.Key)
			hs.prefix = append(hs.prefix, []byte(p))
		}
		return hs, nil
	}
}

func shutdown(srv *thermosc.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // the benchmark owns no state the drain could lose
}

// closedLoop runs callers goroutines that each send their next request
// when the previous one returns, until d has passed. It returns every
// latency in ms, the wall time, and the mismatches.
func closedLoop(hs *hotSetup, seed int64, callers int, d time.Duration, rec *recorder) ([]float64, time.Duration, int64) {
	var (
		wg         sync.WaitGroup
		mismatches atomic.Int64
		lats       = make([][]float64, callers)
		reqID      atomic.Int64
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
			z := rand.NewZipf(rng, zipfS, 1, uint64(len(hs.prefix)-1))
			order := popularityOrder(len(hs.prefix))
			for time.Now().Before(deadline) {
				k := order[z.Uint64()]
				id := rec.begin("serve.maximize", 0, reqID.Add(1))
				t0 := time.Now()
				code, body := call(hs.srv, http.MethodPost, "/v1/maximize", hs.bodies[k])
				lats[c] = append(lats[c], ms(time.Since(t0)))
				rec.end(id)
				if code != http.StatusOK || !bytes.HasPrefix(body, hs.prefix[k]) {
					mismatches.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	return all, elapsed, mismatches.Load()
}

func runServeHot(cfg runConfig, t *tally) (metricSet, error) {
	cat, err := encodeCatalog(hotCatalog(), 0)
	if err != nil {
		return nil, err
	}
	sp := &speedometer{}
	hs, setup, rawSetup, err := medianSetup(3, sp, buildHot(cat, t), func(h *hotSetup) { shutdown(h.srv) })
	if err != nil {
		return nil, err
	}
	defer shutdown(hs.srv)
	callers := runtime.NumCPU()
	keys := make([]int, len(cat))
	for i := range keys {
		keys[i] = i
	}
	vals := metricSet{}
	if cfg.rec == nil {
		// One-second windows with a calibration burst between each: every
		// window is read by the bursts on either side of it, and the
		// medians over windows are reported. A closed loop has no backlog
		// to carry across a window: each caller waits for its reply.
		before, err := readCounters([]*thermosc.Server{hs.srv})
		if err != nil {
			return nil, err
		}
		var rates, p50s, tails, rawRates, rawP50s, rawTails []float64
		sent := 0
		start := time.Now()
		prev := sp.probe()
		for w := int64(0); time.Since(start) < cfg.seconds; w++ {
			lat, el, bad := closedLoop(hs, cfg.seed*1000+w, callers, time.Second, nil)
			next := sp.probe()
			f := between(prev, next)
			prev = next
			countClosed(t, len(lat), bad, "serve_hot")
			sent += len(lat)
			rate, p50, tail := float64(len(lat))/el.Seconds(), median(lat), percentile(lat, hotTail)
			rates, rawRates = append(rates, rate/f), append(rawRates, rate)
			p50s, rawP50s = append(p50s, p50*f), append(rawP50s, p50)
			tails, rawTails = append(tails, tail*f), append(rawTails, tail)
		}
		after, err := readCounters([]*thermosc.Server{hs.srv})
		if err != nil {
			return nil, err
		}
		d := after[0].minus(before[0])
		if d.requests != uint64(sent) || d.hits != uint64(sent) || d.errors != 0 {
			t.fail("serve_hot: sent %d requests, the server counted %d with %d hits and %d errors", sent, d.requests, d.hits, d.errors)
		}
		logf("serve_hot: ops/s per window at reference speed %.0f", rates)
		vals["setup_s"] = setup
		vals["ops_per_s"] = median(rates)
		vals["latency_p50_ms"] = median(p50s)
		vals["latency_tail_ms"] = median(tails)
		vals["unscaled.setup_s"] = rawSetup
		vals["unscaled.ops_per_s"] = median(rawRates)
		vals["unscaled.latency_p50_ms"] = median(rawP50s)
		vals["unscaled.latency_tail_ms"] = median(rawTails)
		vals["plan_throughput"] = bookThroughput(hs.book, keys, t)
		vals["heap_live_mb"] = liveHeapMB()
	} else {
		half := cfg.seconds / 2
		base, _, bad := closedLoop(hs, cfg.seed, callers, half, nil)
		countClosed(t, len(base), bad, "serve_hot")
		lat, _, bad := closedLoop(hs, cfg.seed+1, callers, half, cfg.rec)
		countClosed(t, len(lat), bad, "serve_hot traced")
		vals["serve.hit_us"] = mean(lat) * 1e3
		vals["serve.hit_ratio"] = 1
		vals["bench.trace_overhead_share"] = share(mean(lat)-mean(base), mean(base))
		if err := probeServe(cfg.rec, hs.srv, cat, hs.book, vals); err != nil {
			return nil, err
		}
		vals["bench.calib_ms"] = sp.medianMS()
	}
	checkLibrary(cfg.seed, cat, hs.book, t)
	return vals, nil
}

func countClosed(t *tally, n int, bad int64, what string) {
	t.attempted += n
	if bad > 0 {
		t.failed += int(bad)
		t.notes = append(t.notes, fmt.Sprintf("%s: %d responses were not the cached plan", what, bad))
	}
}

// probeServe times the serve layer's pieces directly: decoding a request,
// encoding a plan, and the stats endpoints; and reads the server's own
// counters.
func probeServe(rec *recorder, srv *thermosc.Server, cat []catalogKey, book map[int][]byte, vals metricSet) error {
	var planKeys []int
	for k := range cat {
		if book[k] != nil && !bytes.Equal(book[k], infeasibleMark) {
			planKeys = append(planKeys, k)
		}
	}
	var dec, enc, st []float64
	for r := 0; r < 200; r++ {
		k := planKeys[r%len(planKeys)]
		var req thermosc.MaximizeRequest
		d, err := rec.timeCall("serve.decode", 0, 0, func() error { return json.Unmarshal(cat[k].body, &req) })
		if err != nil {
			return fmt.Errorf("decoding a request: %w", err)
		}
		dec = append(dec, us(d))
		var plan thermosc.Plan
		if err := json.Unmarshal(book[k], &plan); err != nil {
			return fmt.Errorf("decoding a plan: %w", err)
		}
		d, err = rec.timeCall("serve.encode", 0, 0, func() error { _, err := json.Marshal(&plan); return err })
		if err != nil {
			return fmt.Errorf("encoding a plan: %w", err)
		}
		enc = append(enc, us(d))
		path := "/v1/stats"
		if r%2 == 1 {
			path = "/metrics"
		}
		d, _ = rec.timeCall("serve.stats", 0, 0, func() error {
			if code, body := call(srv, http.MethodGet, path, nil); code != http.StatusOK {
				return fmt.Errorf("%s: %d %s", path, code, body)
			}
			return nil
		})
		st = append(st, us(d))
	}
	vals["serve.decode_us"] = median(dec)
	vals["serve.encode_us"] = median(enc)
	vals["serve.stats_us"] = median(st)
	vals["serve.cache_size"] = float64(srv.Stats().Cache.Size)
	return nil
}
