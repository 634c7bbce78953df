// Command hyperd is the HypeR query-serving daemon: a long-lived HTTP JSON
// API over the hyper engine, hosting named sessions (generated datasets or
// CSV uploads, each with a bounded per-session artifact cache) and serving
// concurrent what-if, how-to, explain and batch queries — synchronously, or
// asynchronously through the job API (submit, poll, cancel; see README.md
// for a curl walkthrough).
//
// Usage:
//
//	hyperd -addr :8080 -preload toy,german
//	curl localhost:8080/v1/datasets
//	curl -X POST localhost:8080/v1/sessions/german/whatif -d '{"query":"USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)"}'
//	curl -X POST localhost:8080/v1/jobs -d '{"session":"german","kind":"howto","query":"USE German HOWTOUPDATE Status LIMIT UPDATES <= 1 TOMAXIMIZE COUNT(Credit = 1)"}'
//	curl localhost:8080/v1/stats
//
// Every hyperd embeds a shard coordinator: workers started with
//
//	hyperd -worker -coordinator http://host:8080 -addr :8081
//
// register themselves (with heartbeats) and are handed contiguous ranges of
// each query's canonical shard plan; session frames ship to a worker on
// first touch and results merge in plan order, bit-identical to a local
// run. The per-request "placement" knob ("local" | "workers") selects the
// execution path; see README.md for the worker-mode walkthrough.
//
// Preloaded sessions are named after their dataset. See internal/server for
// the full API surface and DESIGN.md for the architecture.
//
// On SIGTERM/SIGINT the daemon shuts down gracefully: job submission stops
// (503), queued jobs are cancelled, running jobs are awaited up to
// -drain-timeout (then cancelled mid-solve via their contexts), and only
// then is the HTTP listener closed — so clients can poll final job states
// during the drain. A worker deregisters from its coordinator before
// exiting, so shards requeue proactively instead of timing out a lease.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hyper/internal/dist"
	"hyper/internal/fault"
	"hyper/internal/httpapi"
	"hyper/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheEntries := flag.Int("cache-entries", 512, "per-session cache bound in artifacts (-1 = unbounded)")
	planCacheEntries := flag.Int("plan-cache-entries", 256, "per-session compiled-plan cache bound in plans (-1 = unbounded)")
	workers := flag.Int("batch-workers", 0, "batch worker-pool size (0 = GOMAXPROCS)")
	maxSessions := flag.Int("max-sessions", 64, "maximum live sessions")
	jobWorkers := flag.Int("job-workers", 2, "async job worker-pool size")
	jobQueue := flag.Int("job-queue", 64, "async job queue depth (submissions past it get HTTP 429)")
	jobsPerSession := flag.Int("jobs-per-session", 4, "max live async jobs per session (-1 = unlimited)")
	jobRetention := flag.Int("job-retention", 256, "finished jobs kept pollable")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long to wait for running jobs on shutdown before cancelling them")
	preload := flag.String("preload", "", "comma-separated dataset names to preload as sessions (see /v1/datasets)")
	preloadScale := flag.Float64("preload-scale", 1.0, "dataset scale for preloaded sessions")
	seed := flag.Int64("seed", 7, "seed for preloaded sessions")
	quiet := flag.Bool("quiet", false, "disable per-request logging")
	distTTL := flag.Duration("dist-ttl", 15*time.Second, "coordinator: worker lease (a worker missing heartbeats this long gets no shards)")
	distSecret := flag.String("dist-secret", "", "shared secret for the dist surface (registration + worker compute endpoints); set on coordinator and workers alike when untrusted peers can reach the listeners")
	distState := flag.String("dist-state", "", "coordinator: persist worker registry/quarantine/assignment state to this JSON file (atomic rename) and re-adopt the fleet on restart")
	distRPCTimeout := flag.Duration("dist-rpc-timeout", 0, "coordinator: per-RPC timeout for worker calls (0 = 2m default)")
	distBreakerFailures := flag.Int("dist-breaker-failures", 0, "coordinator: consecutive worker failures before quarantine (0 = default 3)")
	distBreakerCooldown := flag.Duration("dist-breaker-cooldown", 0, "coordinator: quarantine cooldown before a worker is probed again (0 = default 30s)")
	faultSpec := flag.String("fault", "", "deterministic fault injection spec, e.g. \"eval:kill:after=1,frame_ship:error:count=1\" (testing only; see internal/fault)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for probabilistic fault rules")
	workerMode := flag.Bool("worker", false, "run as a shard worker instead of a serving daemon (requires -coordinator)")
	coordinator := flag.String("coordinator", "", "worker mode: coordinator base URL to register with (e.g. http://host:8080)")
	advertise := flag.String("advertise", "", "worker mode: base URL the coordinator dials back (default derived from -addr on 127.0.0.1)")
	workerID := flag.String("worker-id", "", "worker mode: stable worker id (default <hostname>-<pid>)")
	heartbeat := flag.Duration("heartbeat", 5*time.Second, "worker mode: heartbeat interval (keep well under the coordinator's -dist-ttl)")
	workerFrames := flag.Int("worker-frames", 8, "worker mode: session frames kept (LRU eviction past this)")
	slowQueryMs := flag.Int("slow-query-ms", 0, "log a JSON line (with trace id) for query requests at least this slow (0 = off)")
	usageEntries := flag.Int("usage-entries", 256, "query shapes tracked in the /v1/usage table (least-used evicted past this)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off; keep it off or firewalled in production)")
	flag.Parse()

	logger := log.New(os.Stderr, "hyperd: ", log.LstdFlags)
	if *pprofAddr != "" {
		servePprof(logger, *pprofAddr)
	}
	inj, err := fault.Parse(*faultSpec, *faultSeed)
	if err != nil {
		logger.Fatalf("-fault: %v", err)
	}
	if inj != nil {
		logger.Printf("fault injection armed: %s", inj)
	}
	if *workerMode {
		if *coordinator == "" {
			logger.Fatal("-worker requires -coordinator")
		}
		if err := runWorker(logger, *addr, *coordinator, *advertise, *workerID, *distSecret, *heartbeat, *drainTimeout, *workerFrames, *quiet, inj); err != nil {
			logger.Fatalf("worker: %v", err)
		}
		return
	}

	cfg := server.Config{
		CacheEntries:        *cacheEntries,
		PlanCacheEntries:    *planCacheEntries,
		BatchWorkers:        *workers,
		MaxSessions:         *maxSessions,
		JobWorkers:          *jobWorkers,
		JobQueueDepth:       *jobQueue,
		JobsPerSession:      *jobsPerSession,
		JobRetention:        *jobRetention,
		DistTTL:             *distTTL,
		DistSecret:          *distSecret,
		DistStatePath:       *distState,
		DistRPCTimeout:      *distRPCTimeout,
		DistBreakerFailures: *distBreakerFailures,
		DistBreakerCooldown: *distBreakerCooldown,
		Fault:               inj,
		SlowQueryMs:         *slowQueryMs,
		UsageEntries:        *usageEntries,
	}
	if !*quiet {
		cfg.Logf = logger.Printf
	}
	srv := server.New(cfg)

	if *preload != "" {
		for _, name := range strings.Split(*preload, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if err := preloadSession(srv, name, *preloadScale, *seed); err != nil {
				logger.Fatalf("preloading %q: %v", name, err)
			}
			logger.Printf("preloaded session %q", name)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		logger.Printf("received %s, draining jobs (up to %s)", sig, *drainTimeout)
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
		if err := srv.Drain(drainCtx); err != nil {
			logger.Printf("drain: running jobs cancelled after timeout: %v", err)
		}
		cancelDrain()
		logger.Printf("jobs drained, shutting down HTTP")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Fatalf("serve: %v", err)
		}
	}
}

// runWorker serves the dist compute API and keeps a registration alive with
// the coordinator (dist.Worker.Join). On SIGTERM it drains in-flight shard
// RPCs (bounded by drainTimeout, heartbeats still flowing so the lease
// survives the drain) before deregistering, so the coordinator requeues
// proactively instead of timing out a lease mid-RPC.
func runWorker(logger *log.Logger, addr, coordinatorURL, advertiseURL, id, secret string, hb, drainTimeout time.Duration, maxFrames int, quiet bool, inj *fault.Injector) error {
	if id == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if advertiseURL == "" {
		if strings.HasPrefix(addr, ":") {
			advertiseURL = "http://127.0.0.1" + addr
		} else {
			advertiseURL = "http://" + addr
		}
	}
	// A loopback/unspecified advertise URL is only reachable from the
	// worker's own machine. With a remote coordinator it would register
	// fine and then fail every dial-back — an endless register/drop/requeue
	// churn where every query quietly falls back to local evaluation — so
	// refuse the combination up front.
	if loopbackURL(advertiseURL) && !loopbackURL(coordinatorURL) {
		return fmt.Errorf("advertise URL %s is loopback but the coordinator %s is not on this machine; pass -advertise with a routable address",
			advertiseURL, coordinatorURL)
	}

	wcfg := dist.WorkerConfig{MaxFrames: maxFrames, Secret: secret, Fault: inj}
	if !quiet {
		wcfg.Logf = logger.Printf
	}
	w := dist.NewWorker(wcfg)
	// The worker's handler serves the compute routes and the same
	// observability paths as the serving daemon (/metrics, /v1/traces), so
	// one scrape config covers coordinator and workers alike.
	mux := http.NewServeMux()
	mux.Handle("/", w.Handler())
	mux.Handle("GET /healthz", workerHealth(id, w))
	httpSrv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() {
		logger.Printf("worker %s listening on %s (advertising %s, coordinator %s)", id, addr, advertiseURL, coordinatorURL)
		errc <- httpSrv.ListenAndServe()
	}()

	joinCtx, leave := context.WithCancel(context.Background())
	left := make(chan struct{})
	go func() {
		defer close(left)
		w.Join(joinCtx, coordinatorURL, advertiseURL, id, hb, logger.Printf)
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		// Drain before deregistering: in-flight shard RPCs finish normally
		// (heartbeats keep the lease alive meanwhile), so the coordinator
		// never sees a connection die mid-response for a clean shutdown.
		logger.Printf("received %s, draining %d in-flight requests (up to %s)", sig, w.InFlight(), drainTimeout)
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), drainTimeout)
		if err := w.Drain(drainCtx); err != nil {
			logger.Printf("drain: still %d in flight after %s: %v", w.InFlight(), drainTimeout, err)
		}
		cancelDrain()
		logger.Printf("drained, deregistering")
		leave()
		<-left
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
		return nil
	case err := <-errc:
		leave()
		<-left
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// servePprof exposes the net/http/pprof profiling endpoints on their own
// listener — opt-in and address-separated so the serving API can stay
// reachable while profiling stays private (bind it to localhost or a
// firewalled port; the profiles expose internals and can be expensive).
func servePprof(logger *log.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		logger.Printf("pprof listening on %s", addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("pprof: %v", err)
		}
	}()
}

// workerHealthResponse is a worker's GET /healthz payload.
type workerHealthResponse struct {
	OK     bool   `json:"ok"`
	Worker string `json:"worker"`
	Frames int    `json:"frames"`
}

// workerHealth serves a worker's liveness probe: its id and how many frames
// it holds.
func workerHealth(id string, w *dist.Worker) httpapi.Func {
	return func(*http.Request) (any, error) {
		return workerHealthResponse{OK: true, Worker: id, Frames: len(w.FrameIDs())}, nil
	}
}

// loopbackURL reports whether a base URL points at a loopback or
// unspecified host (reachable only from this machine).
func loopbackURL(raw string) bool {
	u, err := url.Parse(raw)
	if err != nil {
		return false
	}
	host := u.Hostname()
	if host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && (ip.IsLoopback() || ip.IsUnspecified())
}

// preloadSession creates a session named after a registry dataset by driving
// the same path the HTTP API uses.
func preloadSession(srv *server.Server, name string, scale float64, seed int64) error {
	body, err := json.Marshal(server.CreateSessionRequest{Name: name, Dataset: name, Scale: scale, Seed: seed})
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("create returned status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return nil
}
