package thermosc

import (
	"sync"
	"sync/atomic"
	"time"
)

// serverStats aggregates the service's operational counters: per-endpoint
// request/error counts and latency histograms, plan-cache hit/miss and
// singleflight sharing counters, and the in-flight gauge. Everything is
// monotonic except the gauge; a snapshot is served as JSON by /v1/stats.
type serverStats struct {
	start    time.Time
	inFlight atomic.Int64

	mu        sync.Mutex
	hits      uint64
	misses    uint64
	shared    uint64
	endpoints map[string]*endpointStats

	// Sampled post-solve audit verdicts (ServerConfig.AuditEvery).
	auditPass        uint64
	auditFail        uint64
	lastAuditFailure string

	// Resilience counters: degraded/stale plans served, admission sheds,
	// panics recovered by the middleware, background cache refreshes.
	degraded     uint64
	stale        uint64
	sheds        uint64
	panics       uint64
	refreshes    uint64
	refreshFails uint64
}

type endpointStats struct {
	count   uint64
	errors  uint64
	latency latencyHist
}

// latencyBounds spans 1 ms (a cache hit) to 60 s (a big cold PCO solve).
var latencyBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// latencyHist is a fixed-bucket latency histogram (seconds). Bounds are
// upper edges; the implicit last bucket is +Inf.
type latencyHist struct {
	counts [16]uint64 // len(latencyBounds) + 1 overflow bucket
	sumS   float64
}

func (h *latencyHist) observe(seconds float64) {
	i := 0
	for i < len(latencyBounds) && seconds > latencyBounds[i] {
		i++
	}
	h.counts[i]++
	h.sumS += seconds
}

func newServerStats() *serverStats {
	return &serverStats{start: time.Now(), endpoints: make(map[string]*endpointStats)}
}

// observe records one finished request on an endpoint.
func (s *serverStats) observe(endpoint string, d time.Duration, failed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep, ok := s.endpoints[endpoint]
	if !ok {
		ep = &endpointStats{}
		s.endpoints[endpoint] = ep
	}
	ep.count++
	if failed {
		ep.errors++
	}
	ep.latency.observe(d.Seconds())
}

// auditResult records one post-solve audit verdict; the detail of the
// most recent failure is kept for /v1/stats.
func (s *serverStats) auditResult(ok bool, detail string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ok {
		s.auditPass++
		return
	}
	s.auditFail++
	s.lastAuditFailure = detail
}

func (s *serverStats) cacheHit()  { s.mu.Lock(); s.hits++; s.mu.Unlock() }
func (s *serverStats) cacheMiss() { s.mu.Lock(); s.misses++; s.mu.Unlock() }
func (s *serverStats) sfShared()  { s.mu.Lock(); s.shared++; s.mu.Unlock() }

func (s *serverStats) degradedServed() { s.mu.Lock(); s.degraded++; s.mu.Unlock() }
func (s *serverStats) staleServed()    { s.mu.Lock(); s.stale++; s.mu.Unlock() }
func (s *serverStats) shed()           { s.mu.Lock(); s.sheds++; s.mu.Unlock() }
func (s *serverStats) panicRecovered() { s.mu.Lock(); s.panics++; s.mu.Unlock() }

func (s *serverStats) refreshDone(ok bool) {
	s.mu.Lock()
	s.refreshes++
	if !ok {
		s.refreshFails++
	}
	s.mu.Unlock()
}

// ServerStats is the JSON schema of /v1/stats.
type ServerStats struct {
	UptimeS    float64                  `json:"uptime_s"`
	InFlight   int64                    `json:"in_flight"`
	Cache      CacheStats               `json:"cache"`
	Audit      AuditCounters            `json:"audit"`
	Resilience ResilienceStats          `json:"resilience"`
	Requests   map[string]EndpointStats `json:"requests"`
	// Cluster reports the fleet layer's counters (nil single-process, so
	// single-process stats stay schema-stable).
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// ClusterStats is the per-node fleet block of /v1/stats. The request
// histograms and resilience counters above are per-process; this block
// classifies this node's successful maximize serves by source so the
// fleet's behavior is reconstructible:
//
//	served_local + served_peer_fetch + served_forwarded
//	    == this node's 200-status /v1/maximize responses
//
// (the sum invariant the regression tests pin). "local" is a local
// cache hit or solve, "peer_fetch" a replicated-store hit for a key
// another replica owns, "forwarded" a request proxied to its owner.
type ClusterStats struct {
	Self            string   `json:"self"`
	Nodes           []string `json:"nodes"`
	ServedLocal     uint64   `json:"served_local"`
	ServedPeerFetch uint64   `json:"served_peer_fetch"`
	ServedForwarded uint64   `json:"served_forwarded"`
	ForwardFailures uint64   `json:"forward_failures"`
	SyncRounds      uint64   `json:"sync_rounds"`
	SyncFailures    uint64   `json:"sync_failures"`
	EntriesSent     uint64   `json:"entries_sent"`
	EntriesReceived uint64   `json:"entries_received"`
	StoreSize       int      `json:"store_size"`
	StoreCapacity   int      `json:"store_capacity"`

	// Failure-detector view: how many peers this node currently holds
	// in each state, and the probe-loop counters feeding it.
	PeersAlive    int    `json:"peers_alive"`
	PeersSuspect  int    `json:"peers_suspect"`
	PeersDead     int    `json:"peers_dead"`
	ProbesSent    uint64 `json:"probes_sent"`
	ProbeFailures uint64 `json:"probe_failures"`

	// Hinted handoff: lifetime queued/dropped/replayed hint keys plus
	// the current backlog across all down peers.
	HintsQueued   uint64 `json:"hints_queued"`
	HintsDropped  uint64 `json:"hints_dropped"`
	HintsReplayed uint64 `json:"hints_replayed"`
	HintBacklog   int    `json:"hint_backlog"`

	// Draining mirrors POST /v1/cluster/drain (also visible on
	// /healthz).
	Draining bool `json:"draining"`
}

// ResilienceStats reports the overload/degradation machinery: how many
// degraded or stale plans were served, how many requests were shed by
// admission control, panics recovered without killing the daemon,
// background cache refreshes, and the circuit breaker's state.
type ResilienceStats struct {
	DegradedServed  uint64 `json:"degraded_served"`
	StaleServed     uint64 `json:"stale_served"`
	ShedTotal       uint64 `json:"shed_total"`
	PanicsRecovered uint64 `json:"panics_recovered"`
	Refreshes       uint64 `json:"refreshes"`
	RefreshFails    uint64 `json:"refresh_fails"`
	QueueDepth      int64  `json:"queue_depth"`
	BreakerState    string `json:"breaker_state,omitempty"`
	BreakerTrips    uint64 `json:"breaker_trips"`
	// Draining reports shutdown or cluster drain in progress (see
	// Server.drainState; omitted while false so steady-state stats keep
	// their previous shape).
	Draining bool `json:"draining,omitempty"`
}

// AuditCounters reports the sampled post-solve verification verdicts
// (zero unless ServerConfig.AuditEvery enables auditing).
type AuditCounters struct {
	VerifyPass  uint64 `json:"verify_pass"`
	VerifyFail  uint64 `json:"verify_fail"`
	LastFailure string `json:"last_failure,omitempty"`
}

// CacheStats reports the plan cache and request-deduplication counters.
type CacheStats struct {
	Hits               uint64 `json:"hits"`
	Misses             uint64 `json:"misses"`
	SingleflightShared uint64 `json:"singleflight_shared"`
	Size               int    `json:"size"`
	Capacity           int    `json:"capacity"`
}

// EndpointStats reports one endpoint's volume and latency distribution.
type EndpointStats struct {
	Count   uint64         `json:"count"`
	Errors  uint64         `json:"errors"`
	Latency HistogramStats `json:"latency"`
}

// HistogramStats is a bucketed latency distribution; bucket counts are
// per-bucket (not cumulative), the last bucket having no upper bound.
type HistogramStats struct {
	Buckets []HistogramBucket `json:"buckets"`
	SumS    float64           `json:"sum_s"`
	Count   uint64            `json:"count"`
}

// HistogramBucket counts requests with latency in (prev bound, LeS];
// LeS = 0 marks the overflow bucket.
type HistogramBucket struct {
	LeS   float64 `json:"le_s,omitempty"`
	Count uint64  `json:"count"`
}

// snapshot renders the current counters (cacheSize/cacheCap come from
// the plan cache, which keeps its own lock).
func (s *serverStats) snapshot(cacheSize, cacheCap int) ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := ServerStats{
		UptimeS:  time.Since(s.start).Seconds(),
		InFlight: s.inFlight.Load(),
		Cache: CacheStats{
			Hits:               s.hits,
			Misses:             s.misses,
			SingleflightShared: s.shared,
			Size:               cacheSize,
			Capacity:           cacheCap,
		},
		Audit: AuditCounters{
			VerifyPass:  s.auditPass,
			VerifyFail:  s.auditFail,
			LastFailure: s.lastAuditFailure,
		},
		Resilience: ResilienceStats{
			DegradedServed:  s.degraded,
			StaleServed:     s.stale,
			ShedTotal:       s.sheds,
			PanicsRecovered: s.panics,
			Refreshes:       s.refreshes,
			RefreshFails:    s.refreshFails,
			// QueueDepth and Breaker* are overlaid by Server.Stats — they
			// live on the admission/breaker structs, not here.
		},
		Requests: make(map[string]EndpointStats, len(s.endpoints)),
	}
	for name, ep := range s.endpoints {
		var total uint64
		hs := HistogramStats{Buckets: make([]HistogramBucket, 0, len(ep.latency.counts)), SumS: ep.latency.sumS}
		for i, c := range ep.latency.counts {
			b := HistogramBucket{Count: c}
			if i < len(latencyBounds) {
				b.LeS = latencyBounds[i]
			}
			hs.Buckets = append(hs.Buckets, b)
			total += c
		}
		hs.Count = total
		out.Requests[name] = EndpointStats{Count: ep.count, Errors: ep.errors, Latency: hs}
	}
	return out
}
