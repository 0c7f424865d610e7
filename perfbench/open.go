package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"thermosc"
	"thermosc/internal/cluster"
)

// openLoop sends request i at its due offset sched[i] from one start
// time, from one goroutine per request, whatever the earlier requests are
// doing, and times each from its due time, so a stalled dispatcher or
// server shows in the latency of every request behind it. do serves
// request i and returns its status and body. It returns when every
// request has been answered, with the time from start to the last answer.
func openLoop(start time.Time, sched []time.Duration, do func(i int) (int, []byte)) ([]outcome, [][]byte, time.Duration) {
	outs := make([]outcome, len(sched))
	bodies := make([][]byte, len(sched))
	var wg sync.WaitGroup
	for i, due := range sched {
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int, due time.Duration) {
			defer wg.Done()
			outs[i].lag = time.Since(start) - due
			outs[i].code, bodies[i] = do(i)
			outs[i].lat = time.Since(start) - due
		}(i, due)
	}
	wg.Wait()
	return outs, bodies, time.Since(start)
}

// openRun is one open-loop run over a catalog.
type openRun struct {
	outs    []outcome
	elapsed time.Duration // from the schedule's start to the last answer
}

// openBurstEvery is the period of the calibration bursts that run beside
// an open loop. A burst keeps every CPU busy for about 7.5 ms, so they
// take about 3% of the machine.
const openBurstEvery = 250 * time.Millisecond

// runOpen drives the catalog at rate for d: zipf-drawn keys, Poisson
// arrivals, all from seed. target picks the handler for request i; srvs
// are the servers whose counters must account for every request.
//
// The run is one schedule from one start time, so a backlog lasts until
// the servers work it off. Calibration bursts run beside it, never
// between its requests, and each request is read at the reference speed
// by the faster of the bursts that ended just before it was due and just
// after it was answered. So a request is read at the speed the host had
// while it ran, and a burst slowed by a solve it met is outweighed by
// its neighbour.
func runOpen(seed int64, rate float64, d time.Duration, cat []catalogKey, target func(i int) http.Handler, srvs []*thermosc.Server, rec *recorder, book map[int][]byte, t *tally, what string) (openRun, error) {
	sched := poissonSchedule(seed, int(rate*d.Seconds()), d)
	keys := zipfDraws(seed+1, len(sched), len(cat), zipfS)
	before, err := readCounters(srvs)
	if err != nil {
		return openRun{}, err
	}
	var (
		sp    speedometer
		ends  []time.Duration
		stop  = make(chan struct{})
		burst sync.WaitGroup
		start = time.Now()
	)
	burst.Add(1)
	go func() {
		defer burst.Done()
		ends = sp.during(start, openBurstEvery, stop)
	}()
	outs, bodies, elapsed := openLoop(start, sched, func(i int) (int, []byte) {
		id := rec.begin(what, 0, int64(i+1))
		defer rec.end(id)
		return call(target(i), http.MethodPost, "/v1/maximize", cat[keys[i]].body)
	})
	close(stop)
	burst.Wait()
	if len(ends) == 0 {
		sp.probe() // a schedule shorter than one period
		ends = append(ends, time.Since(start))
	}
	for i := range outs {
		outs[i].factor = sp.around(ends, sched[i], sched[i]+outs[i].lat)
	}
	after, err := readCounters(srvs)
	if err != nil {
		return openRun{}, err
	}
	buckets := map[string]int{}
	for i := range outs {
		outs[i].key = keys[i]
		classify(&outs[i], bodies[i], book, buckets, t, what)
	}
	checkCounters(before, after, outs, buckets, t, what)
	return openRun{outs: outs, elapsed: elapsed}, nil
}

// endToEndOpen fills the end-to-end metrics of an open-loop run, times
// read at the reference speed. ops_per_s is the completion rate over the
// schedule: it repeats the offered rate while the servers keep up and
// falls below it only by a backlog left at the end of the run, so it is
// not scaled.
func endToEndOpen(r openRun, setup, rawSetup float64, book map[int][]byte, refKeys []int, t *tally) metricSet {
	lat := make([]float64, len(r.outs))
	raw := make([]float64, len(r.outs))
	for i, o := range r.outs {
		// The dispatch lag is timer and scheduler delay, not work, so only
		// the part after dispatch is read at the reference speed.
		lat[i] = ms(o.lag) + ms(o.lat-o.lag)*o.factor
		raw[i] = ms(o.lat)
	}
	// The tails first: median sorts its input in place.
	tail, rawTail := percentile(lat, openTail), percentile(raw, openTail)
	return metricSet{
		"setup_s":         setup,
		"ops_per_s":       float64(len(r.outs)) / r.elapsed.Seconds(),
		"latency_p50_ms":  median(lat),
		"latency_tail_ms": tail,
		"plan_throughput": bookThroughput(book, refKeys, t),

		"unscaled.setup_s":         rawSetup,
		"unscaled.latency_p50_ms":  median(raw),
		"unscaled.latency_tail_ms": rawTail,
	}
}

// servePerLayer fills the serve and bench metrics of a traced open-loop
// run from its responses.
func servePerLayer(r openRun, vals metricSet) {
	var hit, miss, shared, lag []float64
	var degraded, shed int
	for _, o := range r.outs {
		lag = append(lag, ms(o.lag))
		if o.code == http.StatusTooManyRequests {
			shed++
		}
		switch {
		case o.code != http.StatusOK:
		case o.cached:
			hit = append(hit, us(o.lat))
		case o.shared:
			shared = append(shared, ms(o.lat))
		default:
			miss = append(miss, ms(o.lat))
		}
		if o.degraded {
			degraded++
		}
	}
	n := float64(len(r.outs))
	vals["serve.hit_us"] = mean(hit)
	vals["serve.miss_ms"] = mean(miss)
	vals["serve.shared_ms"] = mean(shared)
	vals["serve.hit_ratio"] = share(float64(len(hit)), n)
	vals["serve.shared_ratio"] = share(float64(len(shared)), n)
	vals["serve.degraded_share"] = share(float64(degraded), n)
	vals["serve.shed_share"] = share(float64(shed), n)
	vals["bench.lag_p99_ms"] = percentile(lag, 0.99)
	vals["bench.lag_max_ms"] = maxOf(lag)
}

// hitMeanUS is the mean latency of cache hits, the part of an open-loop
// run whose cost does not depend on which keys were cold.
func hitMeanUS(r openRun) float64 {
	var hit []float64
	for _, o := range r.outs {
		if o.code == http.StatusOK && o.cached {
			hit = append(hit, us(o.lat))
		}
	}
	return mean(hit)
}

// reference keys: a fixed set of mixed-catalog keys whose summed plan
// throughput the serving workloads report, requested after the timed run.
func mixedRefKeys(n int) []int {
	var out []int
	for k := 0; k < n; k += 61 {
		out = append(out, k)
	}
	return out
}

// ---- serve_mixed: one server, open loop over a catalog larger than its LRU ----

func runServeMixed(cfg runConfig, t *tally) (metricSet, error) {
	cat, err := encodeCatalog(mixedCatalog(), openTimeoutS)
	if err != nil {
		return nil, err
	}
	hot := popularityOrder(len(cat))[:warmKeys]
	type mixed struct {
		srv  *thermosc.Server
		book map[int][]byte
	}
	build := func() (*mixed, error) {
		m := &mixed{srv: thermosc.NewServer(thermosc.ServerConfig{}), book: map[int][]byte{}}
		return m, warm(func(int) http.Handler { return m.srv }, cat, hot, m.book, t)
	}
	sp := &speedometer{}
	m, setup, rawSetup, err := medianSetup(7, sp, build, func(m *mixed) { shutdown(m.srv) })
	if err != nil {
		return nil, err
	}
	defer shutdown(m.srv)
	target := func(int) http.Handler { return m.srv }
	srvs := []*thermosc.Server{m.srv}
	vals := metricSet{}
	if cfg.rec == nil {
		r, err := runOpen(cfg.seed, serveMixedRate, cfg.seconds, cat, target, srvs, nil, m.book, t, "serve_mixed")
		if err != nil {
			return nil, err
		}
		refs := mixedRefKeys(len(cat))
		if err := warm(target, cat, refs, m.book, t); err != nil {
			return nil, err
		}
		vals = endToEndOpen(r, setup, rawSetup, m.book, refs, t)
		logf("serve_mixed: %d requests, hit share %.3f", len(r.outs), share(float64(countCached(r)), float64(len(r.outs))))
		r = openRun{}
		vals["heap_live_mb"] = liveHeapMB()
	} else {
		half := cfg.seconds / 2
		// The traced half goes first so it meets the cache as the untraced
		// run does; the untraced half after it is the overhead baseline.
		stop := sampleQueue(m.srv, vals)
		r, err := runOpen(cfg.seed, serveMixedRate, half, cat, target, srvs, cfg.rec, m.book, t, "serve.maximize")
		stop()
		if err != nil {
			return nil, err
		}
		base, err := runOpen(cfg.seed+1, serveMixedRate, half, cat, target, srvs, nil, m.book, t, "serve_mixed")
		if err != nil {
			return nil, err
		}
		servePerLayer(r, vals)
		vals["bench.trace_overhead_share"] = share(hitMeanUS(r)-hitMeanUS(base), hitMeanUS(base))
		wait, err := admissionWait(r, cat, cfg.seed)
		if err != nil {
			return nil, err
		}
		vals["serve.admission_wait_ms"] = wait
		if err := probeServe(cfg.rec, m.srv, cat, m.book, vals); err != nil {
			return nil, err
		}
		vals["bench.calib_ms"] = sp.medianMS()
	}
	checkLibrary(cfg.seed, cat, m.book, t)
	return vals, nil
}

func countCached(r openRun) int {
	n := 0
	for _, o := range r.outs {
		if o.cached {
			n++
		}
	}
	return n
}

// sampleQueue polls the server's admission queue depth every 5 ms into
// serve.queue_depth_max until the returned stop function is called.
func sampleQueue(srv *thermosc.Server, vals metricSet) func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var maxDepth int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				maxDepth = max(maxDepth, srv.Stats().Resilience.QueueDepth)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		vals["serve.queue_depth_max"] = float64(maxDepth)
	}
}

// admissionWait estimates how long cold solves waited inside the server:
// the response's elapsed_s minus a direct warm solve of the same key, over
// a seed-chosen sample of the run's cold solves.
func admissionWait(r openRun, cat []catalogKey, seed int64) (float64, error) {
	var cold []outcome
	for _, o := range r.outs {
		if o.code == http.StatusOK && !o.cached && !o.shared {
			cold = append(cold, o)
		}
	}
	plats := map[string]*thermosc.Platform{}
	var waits []float64
	for _, i := range seedSample(seed, len(cold), 10) {
		o := cold[i]
		req := cat[o.key].req
		pk := fmt.Sprintf("%+v", req.Platform)
		plat := plats[pk]
		if plat == nil {
			var err error
			if plat, err = libPlatform(req.Platform); err != nil {
				return 0, err
			}
			plats[pk] = plat
		}
		// The first solve warms the platform's engine as the server's
		// was; the second is the one timed.
		if _, err := plat.MaximizeContext(context.Background(), req.Method, req.TmaxC, 0); err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := plat.MaximizeContext(context.Background(), req.Method, req.TmaxC, 0); err != nil {
			return 0, err
		}
		waits = append(waits, (o.elapsedS-time.Since(start).Seconds())*1e3)
	}
	return mean(waits), nil
}

// ---- fleet: three clustered replicas on loopback ----

type fleet struct {
	urls  []string
	srvs  []*thermosc.Server
	https []*http.Server
	wg    sync.WaitGroup
}

// startFleet boots n replicas on loopback listeners with thermosc-serve's
// default gossip and probe periods.
func startFleet(n int) (*fleet, error) {
	f := &fleet{}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		var peers []string
		for j, u := range f.urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		srv := thermosc.NewServer(thermosc.ServerConfig{Cluster: &thermosc.ClusterConfig{
			Self:          f.urls[i],
			Peers:         peers,
			SyncInterval:  2 * time.Second,
			ProbeInterval: time.Second,
		}})
		hs := &http.Server{Handler: srv}
		f.srvs = append(f.srvs, srv)
		f.https = append(f.https, hs)
		f.wg.Add(1)
		go func(ln net.Listener) {
			defer f.wg.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed on stop
		}(ln)
	}
	return f, nil
}

// stop shuts every replica down and waits for their listeners to close.
func (f *fleet) stop() {
	for i, hs := range f.https {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = hs.Shutdown(ctx) // idle loopback connections only
		cancel()
		shutdown(f.srvs[i])
	}
	f.wg.Wait()
}

func runFleet(cfg runConfig, t *tally) (metricSet, error) {
	cat, err := encodeCatalog(mixedCatalog(), openTimeoutS)
	if err != nil {
		return nil, err
	}
	hot := popularityOrder(len(cat))[:warmKeys]
	type warmFleet struct {
		f    *fleet
		book map[int][]byte
	}
	build := func() (*warmFleet, error) {
		f, err := startFleet(fleetReplicas)
		if err != nil {
			return nil, err
		}
		w := &warmFleet{f: f, book: map[int][]byte{}}
		return w, warm(func(i int) http.Handler { return f.srvs[i%len(f.srvs)] }, cat, hot, w.book, t)
	}
	sp := &speedometer{}
	w, setup, rawSetup, err := medianSetup(7, sp, build, func(w *warmFleet) { w.f.stop() })
	if err != nil {
		return nil, err
	}
	defer w.f.stop()
	f := w.f
	pick := func(i int) http.Handler { return f.srvs[replicaFor(cfg.seed, i, len(f.srvs))] }
	vals := metricSet{}
	if cfg.rec == nil {
		r, err := runOpen(cfg.seed, fleetRate, cfg.seconds, cat, pick, f.srvs, nil, w.book, t, "fleet")
		if err != nil {
			return nil, err
		}
		refs := mixedRefKeys(len(cat))
		if err := warm(func(i int) http.Handler { return f.srvs[i%len(f.srvs)] }, cat, refs, w.book, t); err != nil {
			return nil, err
		}
		vals = endToEndOpen(r, setup, rawSetup, w.book, refs, t)
		r = openRun{}
		vals["heap_live_mb"] = liveHeapMB()
	} else {
		half := cfg.seconds / 2
		r, err := runOpen(cfg.seed, fleetRate, half, cat, pick, f.srvs, cfg.rec, w.book, t, "cluster.serve")
		if err != nil {
			return nil, err
		}
		base, err := runOpen(cfg.seed+1, fleetRate, half, cat, pick, f.srvs, nil, w.book, t, "fleet")
		if err != nil {
			return nil, err
		}
		servePerLayer(r, vals)
		clusterPerLayer(r, f, vals)
		vals["bench.trace_overhead_share"] = share(hitMeanUS(r)-hitMeanUS(base), hitMeanUS(base))
		probeCluster(cfg.rec, f, cat, w.book, vals)
		vals["bench.calib_ms"] = sp.medianMS()
	}
	checkLibrary(cfg.seed, cat, w.book, t)
	return vals, nil
}

// replicaFor spreads request i over n replicas by seed (a splitmix64
// hash of the two, so the choice is a pure function of seed and index).
func replicaFor(seed int64, i, n int) int {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(n))
}

// clusterPerLayer reads the serve sources of a traced fleet run and the
// replicas' own counters.
func clusterPerLayer(r openRun, f *fleet, vals metricSet) {
	var local, peer, fwd []float64
	cached := 0
	for _, o := range r.outs {
		if o.code != http.StatusOK {
			continue
		}
		if o.cached {
			cached++
		}
		switch o.source {
		case "local":
			local = append(local, ms(o.lat))
		case "peer":
			peer = append(peer, ms(o.lat))
		case "forwarded":
			fwd = append(fwd, ms(o.lat))
		}
	}
	n := float64(len(r.outs))
	vals["cluster.local_share"] = share(float64(len(local)), n)
	vals["cluster.peer_fetch_share"] = share(float64(len(peer)), n)
	vals["cluster.forwarded_share"] = share(float64(len(fwd)), n)
	vals["cluster.forward_ms"] = mean(fwd)
	vals["cluster.local_ms"] = mean(local)
	vals["cluster.hit_ratio"] = share(float64(cached), n)
	var ff, rounds, sent, probes uint64
	for _, s := range f.srvs {
		if c := s.Stats().Cluster; c != nil {
			ff += c.ForwardFailures
			rounds += c.SyncRounds
			sent += c.EntriesSent
			probes += c.ProbesSent
		}
	}
	vals["cluster.forward_failures"] = float64(ff)
	vals["cluster.sync_rounds"] = float64(rounds)
	vals["cluster.entries_sent"] = float64(sent)
	vals["cluster.probes_sent"] = float64(probes)
}

// probeCluster times the ring lookup, the plan store and the snapshot
// encoding directly on the run's keys and plans.
func probeCluster(rec *recorder, f *fleet, cat []catalogKey, book map[int][]byte, vals metricSet) {
	ring := cluster.NewRing(f.urls, 0)
	keys := make([]string, len(cat))
	for i, c := range cat {
		keys[i] = string(c.body)
	}
	const reps = 20
	d, _ := rec.timeCall("cluster.ring_owner", 0, 0, func() error {
		for r := 0; r < reps; r++ {
			for _, k := range keys {
				_ = ring.Owner(k)
			}
		}
		return nil
	})
	vals["cluster.ring_owner_ns"] = float64(d) / float64(reps*len(keys))
	var entries []cluster.Entry
	for k, plan := range book {
		entries = append(entries, cluster.Entry{Key: keys[k], Plan: plan})
	}
	st := cluster.NewMemStore(0)
	d, _ = rec.timeCall("cluster.store_put", 0, 0, func() error {
		for _, e := range entries {
			st.Put(e)
		}
		return nil
	})
	vals["cluster.store_put_ns"] = share(float64(d), float64(len(entries)))
	d, _ = rec.timeCall("cluster.store_get", 0, 0, func() error {
		for r := 0; r < reps; r++ {
			for _, e := range entries {
				_, _ = st.Get(e.Key)
			}
		}
		return nil
	})
	vals["cluster.store_get_ns"] = share(float64(d), float64(reps*len(entries)))
	var snaps []float64
	for r := 0; r < 5; r++ {
		d, _ := rec.timeCall("cluster.snapshot", 0, 0, func() error { _, err := cluster.EncodeSnapshot(st); return err })
		snaps = append(snaps, ms(d))
	}
	vals["cluster.snapshot_ms"] = median(snaps)
}
