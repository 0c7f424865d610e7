// Command thermosc-serve runs the planning service: a long-lived HTTP
// daemon answering throughput-maximization and simulation requests over
// JSON, with plan caching, request deduplication, per-request timeouts,
// and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	thermosc-serve -addr :8080
//
// Endpoints (see docs/SERVE.md for the full schemas):
//
//	POST /v1/maximize  {"platform":{"rows":3,"cols":1},"tmax_c":65,"method":"AO"}
//	POST /v1/simulate  {"platform":{...},"plan":{...},"periods":3}
//	GET  /healthz
//	GET  /v1/stats
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"thermosc"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		planCache     = flag.Int("plan-cache", 256, "LRU plan cache capacity")
		platformCache = flag.Int("platform-cache", 32, "LRU platform/engine cache capacity")
		maxCores      = flag.Int("max-cores", 256, "largest platform (total cores) accepted")
		timeout       = flag.Duration("timeout", 30*time.Second, "default per-request solve timeout")
		maxTimeout    = flag.Duration("max-timeout", 2*time.Minute, "cap on client-requested timeouts")
		workers       = flag.Int("workers", 0, "solver fan-out width (0 = GOMAXPROCS)")
		grace         = flag.Duration("grace", 30*time.Second, "shutdown drain grace period")
		auditEvery    = flag.Int("audit-every", 0, "audit every Nth cold solve with the verification oracle (0 disables)")
		solveConc     = flag.Int("solve-concurrency", 0, "concurrent solve slots (0 = GOMAXPROCS)")
		solveQueue    = flag.Int("solve-queue", 0, "admission queue depth; beyond it requests shed with 429 (0 = default 256)")
		planTTL       = flag.Duration("plan-ttl", 0, "age after which cached complete plans are served stale and refreshed in the background (0 = never stale)")
		brkWindow     = flag.Int("breaker-window", 0, "audit verdicts in the circuit breaker window (0 = default 20)")
		brkThreshold  = flag.Float64("breaker-threshold", 0, "audit failure fraction that trips the breaker to fallback-only planning (0 = default 0.5)")
		brkMinSamples = flag.Int("breaker-min-samples", 0, "verdicts required before the breaker may trip (0 = default 8)")
		brkCooloff    = flag.Duration("breaker-cooloff", 0, "open-state hold before a half-open probe (0 = default 30s)")

		// Fleet flags (see docs/CLUSTER.md). -peers turns on clustering.
		self         = flag.String("self", "", "this replica's advertised base URL (default http://<bound addr>)")
		peers        = flag.String("peers", "", "comma-separated peer base URLs; non-empty enables clustering")
		ringVnodes   = flag.Int("ring-vnodes", 0, "virtual nodes per replica on the hash ring (0 = default 64)")
		syncInterval = flag.Duration("sync-interval", 2*time.Second, "anti-entropy gossip period (0 disables the background loop)")
		storeCap     = flag.Int("store-cap", 0, "replicated plan store capacity (0 = default 4096)")
		storeBackend = flag.String("store-backend", "", "plan store backend: mem or file (default mem)")
		storePath    = flag.String("store-path", "", "append-only log path for -store-backend file")
		warmRestore  = flag.String("warm-restore", "", "snapshot file to load into the plan store at startup")
		warmExport   = flag.String("warm-export", "", "snapshot file to write from the plan store on shutdown")

		// Self-healing flags (failure detector + hinted handoff).
		probeInterval = flag.Duration("probe-interval", time.Second, "peer /healthz probe period for the failure detector (0 disables dedicated probes; gossip still feeds the detector)")
		suspectAfter  = flag.Int("suspect-after", 0, "consecutive failed contacts that mark a peer suspect (0 = default 2)")
		deadAfter     = flag.Int("dead-after", 0, "consecutive failed contacts that mark a peer dead (0 = default 4)")
		recoverAfter  = flag.Int("recover-after", 0, "consecutive successes a dead peer needs to rejoin (0 = default 2)")
		hintCap       = flag.Int("hint-cap", 0, "per-peer hinted-handoff queue bound in keys (0 = default 1024)")
	)
	flag.Parse()

	// The listener binds before the server is built so -self can default
	// to the actually-bound address (-addr 127.0.0.1:0 picks a port).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("thermosc-serve: listen %s: %v", *addr, err)
	}

	var clusterCfg *thermosc.ClusterConfig
	if *peers != "" || *self != "" {
		advertised := *self
		if advertised == "" {
			advertised = "http://" + ln.Addr().String()
		}
		clusterCfg = &thermosc.ClusterConfig{
			Self:          advertised,
			Peers:         splitList(*peers),
			VirtualNodes:  *ringVnodes,
			SyncInterval:  *syncInterval,
			StoreCap:      *storeCap,
			StoreBackend:  *storeBackend,
			StorePath:     *storePath,
			ProbeInterval: *probeInterval,
			SuspectAfter:  *suspectAfter,
			DeadAfter:     *deadAfter,
			RecoverAfter:  *recoverAfter,
			HintCap:       *hintCap,
		}
	} else if *warmRestore != "" || *warmExport != "" {
		log.Fatalf("thermosc-serve: -warm-restore/-warm-export need clustering (-peers or -self)")
	} else if *storeBackend != "" || *storePath != "" {
		log.Fatalf("thermosc-serve: -store-backend/-store-path need clustering (-peers or -self)")
	}

	srv := thermosc.NewServer(thermosc.ServerConfig{
		PlanCacheSize:     *planCache,
		PlatformCacheSize: *platformCache,
		MaxCores:          *maxCores,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		Workers:           *workers,
		AuditEvery:        *auditEvery,
		SolveConcurrency:  *solveConc,
		SolveQueue:        *solveQueue,
		PlanTTL:           *planTTL,
		BreakerWindow:     *brkWindow,
		BreakerThreshold:  *brkThreshold,
		BreakerMinSamples: *brkMinSamples,
		BreakerCooloff:    *brkCooloff,
		Cluster:           clusterCfg,
	})
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *warmRestore != "" {
		snap, err := os.ReadFile(*warmRestore)
		if err != nil {
			log.Fatalf("thermosc-serve: warm restore: %v", err)
		}
		n, err := srv.ClusterRestore(snap)
		if err != nil {
			log.Fatalf("thermosc-serve: warm restore %s: %v", *warmRestore, err)
		}
		log.Printf("thermosc-serve: warm restore: %d plans from %s", n, *warmRestore)
	}

	// The resolved address goes to stdout so scripts and the e2e harness
	// can discover an ephemeral port (-addr 127.0.0.1:0).
	fmt.Printf("listening %s\n", ln.Addr())
	log.Printf("thermosc-serve: listening on %s", ln.Addr())
	if clusterCfg != nil {
		log.Printf("thermosc-serve: cluster self=%s peers=%v", clusterCfg.Self, clusterCfg.Peers)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		log.Fatalf("thermosc-serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("thermosc-serve: draining (grace %s)", *grace)
	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Stop accepting and drain connections, then drain solver work; both
	// share the grace deadline.
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("thermosc-serve: connection drain: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("thermosc-serve: solve drain: %v", err)
		os.Exit(1)
	}
	if *warmExport != "" {
		snap, err := srv.ClusterSnapshot()
		if err != nil {
			log.Printf("thermosc-serve: warm export: %v", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*warmExport, snap, 0o644); err != nil {
			log.Printf("thermosc-serve: warm export %s: %v", *warmExport, err)
			os.Exit(1)
		}
		log.Printf("thermosc-serve: warm export: wrote %s", *warmExport)
	}
	log.Printf("thermosc-serve: drained, bye")
}

// splitList parses a comma-separated flag value into trimmed non-empty
// items.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
