package thermosc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Server is the concurrent planning service: an http.Handler exposing
// the solvers over JSON.
//
//	POST /v1/maximize  platform spec + Tmax + method → serialized plan
//	POST /v1/simulate  platform spec + plan → transient trace + verified peak
//	GET  /healthz      liveness + drain state
//	GET  /v1/stats     cache/latency/in-flight counters (also /metrics)
//
// Maximize requests are canonicalized (servereq.go), deduplicated by a
// singleflight layer, and answered from an LRU plan cache. Plans are
// deterministic functions of the canonical request — the solvers are
// bit-reproducible at any worker count and served plans carry
// solver_elapsed_s = 0 — so a cache or singleflight hit is byte-identical
// to a cold solve. Platforms are cached too: all in-flight solves against
// the same platform share one sim.Engine operator pool.
type Server struct {
	cfg       ServerConfig
	mux       *http.ServeMux
	stats     *serverStats
	plans     *lruCache[cachedPlan]
	platforms *lruCache[*Platform]
	flights   *flightGroup
	admit     *admission
	brk       *breaker
	// cluster is the fleet layer (servecluster.go): consistent-hash
	// routing, the replicated plan store, forwarding, and gossip. Nil in
	// single-process mode.
	cluster *serveCluster

	mu     sync.Mutex
	cond   *sync.Cond
	active int
	closed bool

	// Sampled post-solve auditing (ServerConfig.AuditEvery): solves
	// counts cold solves for the every-Nth sampling; auditWG tracks the
	// in-flight async audit goroutines so Shutdown (and tests) can wait
	// for them. refreshWG does the same for stale-while-revalidate
	// cache refreshes.
	solves    atomic.Uint64
	auditWG   sync.WaitGroup
	refreshWG sync.WaitGroup

	// solveHook, when set, runs inside the flight leader just before the
	// solve. Tests use it to inject latency and panics (chaos testing);
	// nil in production.
	solveHook func(Method)
}

// ServerConfig tunes a Server; zero values select the defaults.
type ServerConfig struct {
	// PlanCacheSize caps the LRU plan cache (default 256 plans).
	PlanCacheSize int
	// PlatformCacheSize caps the platform/engine cache (default 32).
	PlatformCacheSize int
	// MaxCores rejects larger platform requests with 400 (default 256) —
	// solve cost grows steeply with the core count, so the cap is the
	// service's overload valve. The default matches the largest platform
	// the sparse thermal backend solves inside the serve deadline budget
	// (see docs/SPARSE.md).
	MaxCores int
	// DefaultTimeout bounds solves whose request carries no timeout_s
	// (default 30 s).
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested timeout_s (default 2 min).
	MaxTimeout time.Duration
	// Workers is the per-solve parallel fan-out width passed to the
	// solvers (0 = GOMAXPROCS). Plans are identical at any width.
	Workers int
	// MaxTraceSamples caps periods × samples_per_period in /v1/simulate
	// (default 131072).
	MaxTraceSamples int
	// AuditEvery, when > 0, audits every Nth cold solve asynchronously
	// with the independent verification oracle (Platform.Audit): the
	// request is answered immediately and a background goroutine
	// re-derives the plan's peak and invariants from first principles,
	// feeding the verify_pass/verify_fail counters in /v1/stats and
	// /metrics. 0 (the default) disables auditing. The audit verdicts
	// also feed the circuit breaker (Breaker* below).
	AuditEvery int

	// SolveConcurrency caps solves running at once (default GOMAXPROCS);
	// SolveQueue caps solves waiting for a slot (default 256). A request
	// is shed with 429 + Retry-After when the queue is full or the
	// estimated wait for a slot exceeds its own deadline.
	SolveConcurrency int
	SolveQueue       int

	// PlanTTL ages complete cached plans: a hit older than PlanTTL is
	// served immediately with stale:true while a background refresh
	// re-solves it (stale-while-revalidate). 0 (the default) means
	// complete plans never go stale — they are bit-reproducible, so age
	// cannot make them wrong. Degraded plans are ALWAYS stale.
	PlanTTL time.Duration

	// Circuit breaker over the async audit verdicts: when at least
	// BreakerMinSamples of the last BreakerWindow verdicts exist and the
	// failure rate reaches BreakerThreshold, the server answers every
	// solve with the oracle-checked constant safe floor until
	// BreakerCooloff elapses; then one full solve probes and its audit
	// verdict closes or re-opens the breaker. Defaults: window 20,
	// threshold 0.5, min samples 8, cooloff 30s. Inert unless
	// AuditEvery > 0 (no verdicts, no trips).
	BreakerWindow     int
	BreakerThreshold  float64
	BreakerMinSamples int
	BreakerCooloff    time.Duration

	// Cluster, when non-nil, joins this server to a replica fleet:
	// canonical request keys are placed on a consistent-hash ring, plans
	// replicate through a shared store with gossip anti-entropy, and
	// requests for keys owned elsewhere are proxied to their owner (see
	// docs/CLUSTER.md). Nil means single-process serving, byte-identical
	// to previous releases. An invalid cluster config (no Self) panics at
	// construction — a daemon must fail fast on a bad fleet topology, not
	// serve with silently-disabled replication.
	Cluster *ClusterConfig
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 256
	}
	if c.PlatformCacheSize == 0 {
		c.PlatformCacheSize = 32
	}
	if c.MaxCores == 0 {
		c.MaxCores = 256
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxTraceSamples == 0 {
		c.MaxTraceSamples = 1 << 17
	}
	if c.SolveConcurrency == 0 {
		c.SolveConcurrency = runtime.GOMAXPROCS(0)
	}
	if c.SolveQueue == 0 {
		c.SolveQueue = 256
	}
	if c.BreakerWindow == 0 {
		c.BreakerWindow = 20
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 0.5
	}
	if c.BreakerMinSamples == 0 {
		c.BreakerMinSamples = 8
	}
	if c.BreakerCooloff == 0 {
		c.BreakerCooloff = 30 * time.Second
	}
	return c
}

func (c ServerConfig) limits() serveLimits {
	return serveLimits{maxCores: c.MaxCores, maxVoltages: 64, maxTraceSamples: c.MaxTraceSamples}
}

// NewServer builds a planning service with the given configuration.
func NewServer(cfg ServerConfig) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		mux:     http.NewServeMux(),
		stats:   newServerStats(),
		flights: newFlightGroup(),
	}
	s.plans = newLRUCache[cachedPlan](s.cfg.PlanCacheSize)
	s.platforms = newLRUCache[*Platform](s.cfg.PlatformCacheSize)
	s.admit = newAdmission(s.cfg.SolveConcurrency, s.cfg.SolveQueue)
	s.brk = newBreaker(s.cfg.BreakerWindow, s.cfg.BreakerThreshold, s.cfg.BreakerMinSamples, s.cfg.BreakerCooloff)
	s.cond = sync.NewCond(&s.mu)
	if cfg.Cluster != nil {
		c, err := newServeCluster(*cfg.Cluster)
		if err != nil {
			panic(fmt.Sprintf("thermosc.NewServer: %v", err))
		}
		s.cluster = c
		c.startLoops()
	}
	s.mux.HandleFunc("POST /v1/maximize", s.handleMaximize)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleStats)
	s.mux.HandleFunc("GET /v1/cluster", s.handleClusterStatus)
	s.mux.HandleFunc("POST /v1/cluster/sync", s.handleClusterSync)
	s.mux.HandleFunc("GET /v1/cluster/snapshot", s.handleClusterSnapshot)
	s.mux.HandleFunc("POST /v1/cluster/restore", s.handleClusterRestore)
	s.mux.HandleFunc("POST /v1/cluster/drain", s.handleClusterDrain)
	return s
}

// ServeHTTP implements http.Handler. It is the per-request panic
// boundary: a panicking handler (a solver bug, or injected chaos)
// answers 500 and increments panics_recovered instead of killing the
// daemon. The handler's own deferred accounting (leave, in-flight
// gauge, latency observation) runs during the unwind, so the drain and
// stats stay consistent across panics.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			s.stats.panicRecovered()
			writeJSON(w, http.StatusInternalServerError, errorResponse{
				Error: fmt.Sprintf("internal panic: %v", rec),
				Code:  "panic",
			})
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// Stats returns a snapshot of the service counters.
func (s *Server) Stats() ServerStats {
	st := s.stats.snapshot(s.plans.Len(), s.cfg.PlanCacheSize)
	st.Resilience.QueueDepth = s.admit.depth()
	st.Resilience.BreakerState, st.Resilience.BreakerTrips = s.brk.status()
	st.Resilience.Draining = s.drainState()
	if s.cluster != nil {
		st.Cluster = s.cluster.statsSnapshot()
	}
	return st
}

// Shutdown stops admitting new solve requests (they get 503) and blocks
// until every in-flight request has drained or ctx expires. Safe to call
// more than once. It does not close listeners — pair it with
// http.Server.Shutdown, which drains connections while this drains the
// solver work.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if s.cluster != nil {
		s.cluster.stopLoops() // no new gossip or probes while draining
	}
	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.active > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		s.auditWG.Wait()   // async post-solve audits drain with the requests
		s.refreshWG.Wait() // so do stale-plan refreshes
		close(done)
	}()
	select {
	case <-done:
		if s.cluster != nil {
			return s.cluster.closeStore() // drained: safe to release the store's log
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enter admits one request unless the server is draining.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.active++
	return true
}

func (s *Server) leave() {
	s.mu.Lock()
	s.active--
	if s.active == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// maxBodyBytes bounds request bodies; a maximize/simulate request is a
// few KB, so 1 MiB is generous headroom for big plans.
const maxBodyBytes = 1 << 20

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return nil, badRequestf("reading body: %v", err)
	}
	return body, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
	// Code is the machine-readable error class: bad_request, infeasible,
	// shed, deadline, degraded, panic, internal.
	Code string `json:"code,omitempty"`
	// RetryAfterS mirrors the Retry-After header on shed (429) replies.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// writeError maps an error to its HTTP status and machine-readable
// code: requestErrors keep their 4xx (code bad_request); admission
// sheds become 429 with Retry-After; typed ErrInfeasible refusals 422
// (the platform cannot meet the threshold — retrying is futile);
// deadline/cancellation aborts 504; a flight whose leader panicked 500
// with code panic; everything else 500 internal.
func writeError(w http.ResponseWriter, err error) {
	var reqErr *requestError
	var shed *shedError
	switch {
	case errors.As(err, &reqErr):
		writeJSON(w, reqErr.status, errorResponse{Error: reqErr.msg, Code: "bad_request"})
	case errors.As(err, &shed):
		secs := int(math.Ceil(shed.retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error(), Code: "shed", RetryAfterS: secs})
	case errors.Is(err, ErrInfeasible):
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error(), Code: "infeasible"})
	case errors.Is(err, ErrDegraded):
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: err.Error(), Code: "degraded"})
	case errors.Is(err, ErrDeadline), errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: fmt.Sprintf("solve aborted: %v", err), Code: "deadline"})
	case errors.Is(err, errFlightPanic):
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error(), Code: "panic"})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error(), Code: "internal"})
	}
}

// timeoutFor resolves a request's solve deadline from its timeout_s.
func (s *Server) timeoutFor(timeoutS float64) time.Duration {
	if timeoutS <= 0 {
		return s.cfg.DefaultTimeout
	}
	// Cap in float space: a huge timeout_s (say 1e300) would overflow the
	// int64 nanosecond conversion into a negative Duration and, before
	// this guard, fall through as a 1ns deadline.
	if timeoutS >= s.cfg.MaxTimeout.Seconds() {
		return s.cfg.MaxTimeout
	}
	d := time.Duration(timeoutS * float64(time.Second))
	if d <= 0 { // sub-nanosecond timeouts round to an immediate deadline
		d = time.Nanosecond
	}
	return d
}

// platformFor returns the shared Platform for a canonical spec, building
// it at most once per cache residency. Sharing the Platform is what
// shares its sim.Engine across all in-flight solves on that platform.
func (s *Server) platformFor(platKey string, spec PlatformSpec) (*Platform, error) {
	return s.platforms.GetOrCreate(platKey, spec.platform)
}

func (s *Server) handleMaximize(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is shutting down"})
		return
	}
	defer s.leave()
	start := time.Now()
	s.stats.inFlight.Add(1)
	defer s.stats.inFlight.Add(-1)
	failed := true
	defer func() { s.stats.observe("maximize", time.Since(start), failed) }()

	body, err := readBody(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	req, planKey, platKey, err := parseMaximizeRequest(body, s.cfg.limits())
	if err != nil {
		writeError(w, err)
		return
	}

	// Layer 1: the process-local LRU.
	if ent, ok := s.plans.Get(planKey); ok {
		failed = false
		s.serveCachedPlan(w, start, planKey, platKey, req, ent, serveSourceLocal)
		return
	}
	// Layer 2: the replicated plan store (cluster mode). A hit for a key
	// another replica owns means the bytes arrived via gossip or a
	// snapshot restore — a peer fetch in effect.
	if ent, src, ok := s.clusterStoreGet(planKey); ok {
		failed = false
		s.serveCachedPlan(w, start, planKey, platKey, req, ent, src)
		return
	}
	s.stats.cacheMiss()

	// Layer 3: the forwarding proxy — keys owned by another replica are
	// answered by their owner so the fleet solves each key once. The
	// owner comes from the HEALTHY ring view: suspect/dead owners are
	// skipped up front (their keys fall to the next healthy successor)
	// instead of being rediscovered via a timed-out forward on every
	// request. A request that already hopped once is always served here
	// (never re-forwarded), and an unreachable owner still falls through
	// to the local solve: the ring re-routes instead of failing the
	// request.
	if s.cluster != nil && r.Header.Get(clusterHopHeader) == "" {
		if owner := s.cluster.healthyOwner(planKey); owner != s.cluster.cfg.Self {
			if s.forwardMaximize(w, r, body, owner, planKey, start, &failed) {
				return
			}
		}
	}

	// Layer 4: solve locally.
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutS))
	defer cancel()
	ent, shared, err := s.flights.Do(ctx, planKey, func() (cachedPlan, error) {
		return s.solvePlan(ctx, planKey, platKey, req, false)
	})
	if shared {
		s.stats.sfShared()
	}
	if err != nil {
		writeError(w, err)
		return
	}
	if ent.degraded {
		s.stats.degradedServed()
	}
	failed = false
	s.clusterServed(serveSourceLocal)
	writeJSON(w, http.StatusOK, MaximizeResponse{
		Plan:           ent.bytes,
		Shared:         shared,
		Degraded:       ent.degraded,
		DegradedReason: ent.reason,
		Key:            keyDigest(planKey),
		Source:         s.sourceLabel(serveSourceLocal),
		ElapsedS:       time.Since(start).Seconds(),
	})
}

// serveCachedPlan answers a maximize request from a cache layer (the
// local LRU or the replicated store), running the shared
// stale-while-revalidate and accounting machinery. The caller has
// already cleared its failed flag.
func (s *Server) serveCachedPlan(w http.ResponseWriter, start time.Time, planKey, platKey string, req MaximizeRequest, ent cachedPlan, source string) {
	stale := s.isStale(ent)
	if stale {
		s.stats.staleServed()
		s.refreshAsync(planKey, platKey, req)
	}
	if ent.degraded {
		s.stats.degradedServed()
	}
	s.stats.cacheHit()
	s.clusterServed(source)
	writeJSON(w, http.StatusOK, MaximizeResponse{
		Plan:           ent.bytes,
		Cached:         true,
		Stale:          stale,
		Degraded:       ent.degraded,
		DegradedReason: ent.reason,
		Key:            keyDigest(planKey),
		Source:         s.sourceLabel(source),
		ElapsedS:       time.Since(start).Seconds(),
	})
}

// solvePlan is the flight-leader body: admission control, breaker
// routing, the resilient solve, canonicalization, caching, and sampled
// audit dispatch. requireComplete is set by background refreshes — a
// degraded result is then discarded with ErrDegraded instead of
// re-caching another stale entry.
func (s *Server) solvePlan(ctx context.Context, planKey, platKey string, req MaximizeRequest, requireComplete bool) (cachedPlan, error) {
	plat, err := s.platformFor(platKey, req.Platform)
	if err != nil {
		return cachedPlan{}, badRequestf("building platform: %v", err)
	}
	if err := s.admit.acquire(ctx); err != nil {
		s.stats.shed()
		return cachedPlan{}, err
	}
	solveStart := time.Now()
	defer func() { s.admit.release(time.Since(solveStart)) }()
	if s.solveHook != nil {
		s.solveHook(req.Method)
	}
	var plan *Plan
	if s.brk.allowFull() {
		plan, err = plat.MaximizeResilient(ctx, req.Method, req.TmaxC, s.cfg.Workers)
	} else {
		// Breaker open: the audit failure rate says full solves cannot be
		// trusted right now, so only the oracle-checked constant floor is
		// served until the cooloff elapses.
		plan, err = plat.SafeFloorPlan(req.TmaxC)
		if err == nil {
			plan.DegradedReason = "breaker-open"
		}
	}
	if err != nil {
		return cachedPlan{}, err
	}
	if requireComplete && plan.Degraded {
		return cachedPlan{}, fmt.Errorf("%w: refresh produced a %s plan", ErrDegraded, plan.DegradedReason)
	}
	// Canonicalize the served plan: zero the wall-clock timing so the
	// bytes are a pure function of the request (cache hits and golden
	// replays compare byte-identical).
	plan.Elapsed = 0
	b, err := json.Marshal(plan)
	if err != nil {
		return cachedPlan{}, err
	}
	ent := cachedPlan{bytes: b, degraded: plan.Degraded, reason: plan.DegradedReason, born: time.Now()}
	s.plans.Put(planKey, ent)
	s.clusterStorePut(planKey, ent) // complete plans replicate fleet-wide
	// Only complete plans enter the audit sampling: degraded plans were
	// already oracle-checked synchronously by the fallback chain.
	if !plan.Degraded && s.cfg.AuditEvery > 0 && s.solves.Add(1)%uint64(s.cfg.AuditEvery) == 0 {
		s.auditWG.Add(1)
		go s.runAudit(plat, plan, req.TmaxC)
	}
	return ent, nil
}

// isStale reports whether a cache hit should be served
// stale-while-revalidate. Degraded plans are always stale (a complete
// solve may well succeed now that the original deadline pressure is
// gone); complete plans only age out when PlanTTL is set.
func (s *Server) isStale(ent cachedPlan) bool {
	if ent.degraded {
		return true
	}
	return s.cfg.PlanTTL > 0 && time.Since(ent.born) > s.cfg.PlanTTL
}

// refreshAsync starts a background re-solve of a stale cache entry
// under the server's own deadline (not the triggering request's, which
// is about to return the stale bytes). The refresh joins the normal
// singleflight, so concurrent stale hits share one re-solve, and it
// demands a complete plan — a refresh that would only produce another
// degraded entry is dropped.
func (s *Server) refreshAsync(planKey, platKey string, req MaximizeRequest) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.refreshWG.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.refreshWG.Done()
		defer func() {
			if rec := recover(); rec != nil {
				s.stats.panicRecovered()
				s.stats.refreshDone(false)
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DefaultTimeout)
		defer cancel()
		ent, _, err := s.flights.Do(ctx, planKey, func() (cachedPlan, error) {
			return s.solvePlan(ctx, planKey, platKey, req, true)
		})
		s.stats.refreshDone(err == nil && !ent.degraded)
	}()
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is shutting down"})
		return
	}
	defer s.leave()
	start := time.Now()
	s.stats.inFlight.Add(1)
	defer s.stats.inFlight.Add(-1)
	failed := true
	defer func() { s.stats.observe("simulate", time.Since(start), failed) }()

	body, err := readBody(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	spec, plan, periods, samples, platKey, err := parseSimulateRequest(body, s.cfg.limits())
	if err != nil {
		writeError(w, err)
		return
	}
	plat, err := s.platformFor(platKey, spec)
	if err != nil {
		writeError(w, badRequestf("building platform: %v", err))
		return
	}
	trace, err := plat.Trace(plan, periods, samples)
	if err != nil {
		writeError(w, badRequestf("simulating plan: %v", err))
		return
	}
	peak, err := plat.VerifyPeakC(plan, 32)
	if err != nil {
		writeError(w, badRequestf("verifying plan: %v", err))
		return
	}
	failed = false
	writeJSON(w, http.StatusOK, SimulateResponse{
		TimeS:         trace.TimeS,
		CoreTempC:     trace.CoreTempC,
		MaxC:          trace.MaxC(),
		VerifiedPeakC: peak,
		ElapsedS:      time.Since(start).Seconds(),
	})
}

// runAudit re-checks one served plan with the independent oracle and
// records the verdict. It runs on its own goroutine — a failed audit
// cannot delay or fail the request that produced the plan; it surfaces
// through the verify_fail counter (and last_failure detail) in /v1/stats
// and /metrics, where monitoring alerts on it.
// Audit verdicts also feed the circuit breaker: a failure streak trips
// the service to fallback-only planning (see ServerConfig.Breaker*).
func (s *Server) runAudit(plat *Platform, plan *Plan, tmaxC float64) {
	defer s.auditWG.Done()
	defer func() {
		if rec := recover(); rec != nil { // the oracle must never kill the daemon
			s.stats.panicRecovered()
			s.stats.auditResult(false, fmt.Sprintf("audit panicked: %v", rec))
			s.brk.record(false)
		}
	}()
	rep, err := plat.Audit(plan, tmaxC)
	ok := false
	switch {
	case err != nil:
		s.stats.auditResult(false, fmt.Sprintf("audit error: %v", err))
	case !rep.OK:
		s.stats.auditResult(false, rep.String())
	default:
		s.stats.auditResult(true, "")
		ok = true
	}
	s.brk.record(ok)
}

// waitAudits blocks until every in-flight async audit has finished
// (tests use it to observe the counters deterministically);
// waitRefreshes does the same for stale-plan refreshes.
func (s *Server) waitAudits() { s.auditWG.Wait() }

func (s *Server) waitRefreshes() { s.refreshWG.Wait() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Shutdown drain and cluster drain both report here: peer failure
	// detectors read /healthz, so flipping it is what makes the rest of
	// the fleet route around this replica.
	draining := s.drainState()
	status := http.StatusOK
	state := "ok"
	if draining {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, map[string]any{
		"status":   state,
		"uptime_s": time.Since(s.stats.start).Seconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
