// Command kscope-serve is the analysis-as-a-service daemon: a long-running
// HTTP/JSON server that accepts MiniC programs and answers points-to,
// CFI-target, and invariant queries on demand, with a content-hash analysis
// cache, bounded admission, and per-request solve budgets. See docs/API.md
// for the endpoint reference and docs/RUNBOOK.md for operations.
//
// Modes:
//
//	kscope-serve [flags]                         run the daemon (default)
//	kscope-serve -loadgen [flags]                drive load at a running daemon,
//	                                             report p50/p99, gate on SLOs
//	kscope-serve -smoke                          self-contained CI smoke: start an
//	                                             in-process daemon, health-check it,
//	                                             run ~2s of load, one query
//	                                             round-trip, scrape /metricsz
//	                                             (Prometheus) and /tracez, gate a
//	                                             live metrics comparison, clean
//	                                             shutdown
//
// Daemon flags:
//
//	-addr ADDR            listen address (default 127.0.0.1:8350)
//	-max-body N           request body cap in bytes (default 1 MiB)
//	-max-inflight N       concurrent solve slots (default GOMAXPROCS)
//	-queue-timeout D      max admission wait before shedding (default 2s)
//	-solve-steps N        per-stage solver step budget, 0 = unlimited
//	-solve-timeout D      per-request solve wall-clock budget, 0 = unlimited
//	-max-programs N       distinct cached programs before FIFO eviction
//	-cache-dir DIR        back the analysis cache with the crash-safe
//	                      persistent store in DIR: solved results are spilled
//	                      to disk and warm-loaded on restart (/readyz turns
//	                      200 when the warm-load finishes); corrupt records
//	                      are quarantined under DIR/quarantine and re-solved
//	-drain-grace D        after SIGTERM, keep the listener open for D while
//	                      refusing new POST work with a typed 503 (so load
//	                      balancers observe /readyz turn 503 before the
//	                      socket closes); default 0
//	-retry-after D        Retry-After hint on 503 responses (default 1s)
//	-fault-seed N         arm the seeded fault-injection plan N (0 = off),
//	                      for chaos-testing the daemon
//	-fault-list           print every fault-injection site and exit
//	-access-log DEST      JSON-lines access log: "off" (default), "stderr",
//	                      "stdout", or a file path (appended)
//	-trace-recent N       request traces kept in the /tracez recent ring
//	                      (default 64)
//	-trace-slowest N      slowest ring-evicted traces kept anyway (default 8)
//	-no-trace             disable request tracing entirely (spans fall back
//	                      to the process-global registry)
//
// Loadgen flags:
//
//	-target URL           daemon base URL (default http://127.0.0.1:8350)
//	-concurrency N        concurrent client sessions (default 8)
//	-duration D           how long to drive load (default 2s)
//	-slo-p50 D            fail (exit 1) if client-observed p50 exceeds D
//	-slo-p99 D            fail (exit 1) if client-observed p99 exceeds D
//	-slo-errors RATE      fail (exit 1) if hard-error rate exceeds RATE
//	                      (default 0; 503 sheds never count as errors)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8350", "listen address")
		maxBody      = flag.Int64("max-body", 1<<20, "request body cap in bytes")
		maxInflight  = flag.Int("max-inflight", 0, "concurrent solve slots (0 = GOMAXPROCS)")
		queueTimeout = flag.Duration("queue-timeout", 2*time.Second, "max admission wait before shedding")
		solveSteps   = flag.Int64("solve-steps", 0, "per-stage solver step budget (0 = unlimited)")
		solveTimeout = flag.Duration("solve-timeout", 0, "per-request solve wall clock (0 = unlimited)")
		maxPrograms  = flag.Int("max-programs", 128, "distinct cached programs before eviction")
		cacheDir     = flag.String("cache-dir", "", "persistent result store directory (empty = memory only)")
		drainGrace   = flag.Duration("drain-grace", 0, "listener grace period between SIGTERM and socket close")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on 503s")
		faultSeed    = flag.Int64("fault-seed", 0, "arm seeded fault injection (0 = off)")
		faultList    = flag.Bool("fault-list", false, "print every fault-injection site and exit")
		accessLog    = flag.String("access-log", "off", "JSON-lines access log: off, stderr, stdout, or a file path")
		traceRecent  = flag.Int("trace-recent", 0, "request traces kept in the /tracez recent ring (0 = default 64)")
		traceSlowest = flag.Int("trace-slowest", 0, "slowest evicted traces kept anyway (0 = default 8)")
		noTrace      = flag.Bool("no-trace", false, "disable request tracing and /tracez retention")

		loadgen     = flag.Bool("loadgen", false, "run the load generator instead of the daemon")
		target      = flag.String("target", "http://127.0.0.1:8350", "loadgen: daemon base URL")
		concurrency = flag.Int("concurrency", 8, "loadgen: concurrent client sessions")
		duration    = flag.Duration("duration", 2*time.Second, "loadgen: run length")
		sloP50      = flag.Duration("slo-p50", 0, "loadgen: p50 latency SLO (0 = unchecked)")
		sloP99      = flag.Duration("slo-p99", 0, "loadgen: p99 latency SLO (0 = unchecked)")
		sloErrors   = flag.Float64("slo-errors", 0, "loadgen: max hard-error rate")

		smoke = flag.Bool("smoke", false, "self-contained smoke run (CI)")
	)
	flag.Parse()

	if *faultList {
		fmt.Print(faultSiteList())
		os.Exit(0)
	}

	cfg := serve.Config{
		MaxBodyBytes:   *maxBody,
		MaxInflight:    *maxInflight,
		QueueTimeout:   *queueTimeout,
		SolveSteps:     *solveSteps,
		SolveTimeout:   *solveTimeout,
		MaxPrograms:    *maxPrograms,
		CacheDir:       *cacheDir,
		RetryAfter:     *retryAfter,
		Metrics:        telemetry.New(),
		TraceRecent:    *traceRecent,
		TraceSlowest:   *traceSlowest,
		DisableTracing: *noTrace,
	}
	switch *accessLog {
	case "", "off":
	case "stderr":
		cfg.AccessLog = os.Stderr
	case "stdout":
		cfg.AccessLog = os.Stdout
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kscope-serve: -access-log:", err)
			os.Exit(2)
		}
		defer f.Close()
		cfg.AccessLog = f
	}
	if *faultSeed != 0 {
		plan := faultinject.NewPlan(*faultSeed)
		cfg.Faults = plan
		fmt.Fprintf(os.Stderr, "kscope-serve: chaos mode: %s\n", plan)
	}
	switch {
	case *smoke:
		os.Exit(runSmoke(cfg))
	case *loadgen:
		os.Exit(runLoadgen(*target, *concurrency, *duration,
			serve.SLO{MaxP50: *sloP50, MaxP99: *sloP99, MaxErrorRate: *sloErrors}))
	default:
		os.Exit(runDaemon(*addr, cfg, *drainGrace))
	}
}

// faultSiteList renders every fault-injection site, one per line, for
// -fault-list (shared verbatim with kscope-bench).
func faultSiteList() string {
	var b strings.Builder
	for _, s := range faultinject.Sites() {
		fmt.Fprintln(&b, s)
	}
	return b.String()
}

// runDaemon serves until SIGINT/SIGTERM, then runs the drain sequence.
func runDaemon(addr string, cfg serve.Config, grace time.Duration) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kscope-serve:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveUntil(ctx, ln, cfg, grace)
}

// serveUntil runs the daemon on ln until ctx is cancelled, then executes the
// drain sequence: BeginDrain turns /readyz 503 and refuses new POST work
// with a typed error while the listener stays open for the grace period (so
// load balancers observe the readiness flip before the socket closes), then
// http.Server.Shutdown waits for in-flight requests, and finally FlushDirty
// retries any result whose disk save failed during the daemon's life.
// Factored out of runDaemon so the graceful-drain regression test can drive
// it with a plain cancellable context instead of a signal.
func serveUntil(ctx context.Context, ln net.Listener, cfg serve.Config, grace time.Duration) int {
	srv := serve.New(cfg)
	if err := srv.PersistError(); err != nil {
		// A daemon asked to be crash-safe must not silently run memory-only.
		fmt.Fprintln(os.Stderr, "kscope-serve: -cache-dir:", err)
		ln.Close()
		return 1
	}
	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "kscope-serve: listening on http://%s (%d solve slots, budget %d steps/stage)\n",
		ln.Addr(), capacityOf(cfg), cfg.SolveSteps)
	if cfg.CacheDir != "" {
		go func() {
			if srv.WaitWarm(context.Background()) == nil {
				fmt.Fprintf(os.Stderr, "kscope-serve: warm-load complete (%d records loaded, %d quarantined); ready\n",
					srv.Metrics().Counter("persist/warm-loaded").Value(),
					srv.Metrics().Counter("persist/corrupt-quarantined").Value())
			}
		}()
	}
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "kscope-serve:", err)
		return 1
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "kscope-serve: shutting down (draining in-flight requests)")
	srv.BeginDrain()
	if grace > 0 {
		time.Sleep(grace)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "kscope-serve: shutdown:", err)
		return 1
	}
	if flushed, failed := srv.FlushDirty(); flushed+failed > 0 {
		fmt.Fprintf(os.Stderr, "kscope-serve: flushed %d dirty cache record(s), %d failed\n", flushed, failed)
		if failed > 0 {
			return 1
		}
	}
	return 0
}

func capacityOf(cfg serve.Config) int {
	if cfg.MaxInflight > 0 {
		return cfg.MaxInflight
	}
	return -1 // resolved to GOMAXPROCS inside serve.New
}

// runLoadgen drives load at a running daemon and gates on the SLO.
func runLoadgen(target string, concurrency int, duration time.Duration, slo serve.SLO) int {
	rep, err := serve.RunLoad(context.Background(), serve.LoadOpts{
		Target:      target,
		Concurrency: concurrency,
		Duration:    duration,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kscope-serve -loadgen:", err)
		return 2
	}
	fmt.Print(rep.Text())
	if violations := rep.SLOViolations(slo); len(violations) != 0 {
		fmt.Fprintln(os.Stderr, "SLO gate FAILED:")
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "  "+v)
		}
		return 1
	}
	fmt.Println("SLO gate passed")
	return 0
}

// runSmoke is the CI gate: an in-process daemon on an ephemeral port, a
// /healthz check, ~2s of generated load, one verified query round-trip,
// and a clean graceful shutdown — any step failing fails the run.
func runSmoke(cfg serve.Config) int {
	fail := func(step string, err error) int {
		fmt.Fprintf(os.Stderr, "serve-smoke: %s: %v\n", step, err)
		return 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail("listen", err)
	}
	srv := serve.New(cfg)
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "serve-smoke: daemon on %s\n", base)

	// 1. The daemon is alive and on its optimistic view.
	var health struct{ Status, View string }
	if err := getJSON(base+"/healthz", &health); err != nil {
		return fail("/healthz", err)
	}
	if health.Status != "ok" || health.View != "optimistic" {
		return fail("/healthz", fmt.Errorf("status=%q view=%q", health.Status, health.View))
	}

	// 2. Two seconds of concurrent load with a generous latency SLO and a
	// zero-hard-error budget.
	rep, err := serve.RunLoad(context.Background(), serve.LoadOpts{
		Target: base, Concurrency: 8, Duration: 2 * time.Second,
	})
	if err != nil {
		return fail("loadgen", err)
	}
	fmt.Print(rep.Text())
	if violations := rep.SLOViolations(serve.SLO{MaxP99: 2 * time.Second}); len(violations) != 0 {
		return fail("SLO gate", fmt.Errorf("%s", strings.Join(violations, "; ")))
	}
	if rep.OK == 0 {
		return fail("loadgen", fmt.Errorf("no successful requests"))
	}

	// 3. One verified query round-trip: a pointer query whose fallback set
	// must be non-empty.
	body := strings.NewReader(`{"name":"smoke","source":"int g;\nint* pick() { return &g; }\nint main() { int* p; p = pick(); return *p; }","fn":"pick"}`)
	resp, err := http.Post(base+"/pointsto", "application/json", body)
	if err != nil {
		return fail("/pointsto", err)
	}
	var pts struct {
		Fallback []string `json:"fallback"`
	}
	err = json.NewDecoder(resp.Body).Decode(&pts)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(pts.Fallback) == 0 {
		return fail("/pointsto", fmt.Errorf("status=%d fallback=%v err=%v", resp.StatusCode, pts.Fallback, err))
	}
	fmt.Fprintf(os.Stderr, "serve-smoke: query round-trip ok (pick() -> %v)\n", pts.Fallback)

	// 4. The Prometheus exposition is scrapeable and carries the daemon's
	// request counters.
	prom, err := getBody(base + "/metricsz?format=prom")
	if err != nil {
		return fail("/metricsz?format=prom", err)
	}
	if !strings.Contains(string(prom), "kscope_serve_requests") {
		return fail("/metricsz?format=prom", fmt.Errorf("exposition missing kscope_serve_requests:\n%.400s", prom))
	}
	fmt.Fprintf(os.Stderr, "serve-smoke: prometheus scrape ok (%d bytes)\n", len(prom))

	// 5. The flight recorder retained the load's traces, and a retained slow
	// request resolves to a Perfetto-loadable trace. The loadgen's slowest
	// ids are tried first; under tens of thousands of smoke requests they may
	// have aged out of the ring (client-observed latency and the server-side
	// durations the slowest shortlist ranks by need not agree), so the
	// index's own retained ids are the fallback.
	var idx struct {
		Recent  []struct{ ID string }
		Slowest []struct{ ID string }
	}
	if err := getJSON(base+"/tracez", &idx); err != nil {
		return fail("/tracez", err)
	}
	if len(idx.Recent) == 0 || len(idx.Slowest) == 0 {
		return fail("/tracez", fmt.Errorf("flight recorder retained no traces after load (%d recent, %d slowest)",
			len(idx.Recent), len(idx.Slowest)))
	}
	var candidates []string
	for _, sr := range rep.Slowest {
		candidates = append(candidates, sr.TraceID)
	}
	candidates = append(candidates, idx.Slowest[0].ID, idx.Recent[0].ID)
	traceID, chrome := "", []byte(nil)
	for _, id := range candidates {
		if id == "" {
			continue
		}
		if data, err := getBody(base + "/tracez?id=" + id); err == nil {
			traceID, chrome = id, data
			break
		}
	}
	if traceID == "" {
		return fail("/tracez?id=", fmt.Errorf("none of %d candidate trace ids resolved", len(candidates)))
	}
	if !strings.Contains(string(chrome), "traceEvents") {
		return fail("/tracez?id="+traceID, fmt.Errorf("export is not Chrome trace JSON:\n%.200s", chrome))
	}
	fmt.Fprintf(os.Stderr, "serve-smoke: slow request trace %s exported (%d bytes)\n", traceID, len(chrome))

	// 6. The live metrics gate: snapshot /metricsz as a baseline, replay the
	// (now cached) query — serve/cache/misses must not move — then inject a
	// synthetic regression into a copy and require the comparison to trip,
	// proving the non-zero-exit path of -compare-metrics against a URL.
	// The baseline must already time the load's misses: every span a traced
	// request opens adds to its name's total in the registry.
	baseline, err := telemetry.LoadSnapshot(base + "/metricsz")
	if err != nil {
		return fail("compare-metrics baseline", err)
	}
	for _, name := range []string{"core/stage/optimistic", "serve/project"} {
		if baseline.Timers[name].Count == 0 {
			return fail("/metricsz timers", fmt.Errorf("no %s span total after the load", name))
		}
	}
	watch := []string{"serve/cache/misses"}
	for i := 0; i < 5; i++ {
		body := strings.NewReader(`{"name":"smoke","source":"int g;\nint* pick() { return &g; }\nint main() { int* p; p = pick(); return *p; }","fn":"pick"}`)
		resp, err := http.Post(base+"/pointsto", "application/json", body)
		if err != nil {
			return fail("cached replay", err)
		}
		resp.Body.Close()
	}
	cur, err := telemetry.LoadSnapshot(base + "/metricsz")
	if err != nil {
		return fail("compare-metrics current", err)
	}
	if regs := telemetry.CompareSnapshots(baseline, cur, watch, 0).Regressions(); len(regs) > 0 {
		return fail("live metrics gate", fmt.Errorf("cached replays regressed %v", regs))
	}
	injected := cur
	injected.Counters = map[string]int64{}
	for k, v := range cur.Counters {
		injected.Counters[k] = v
	}
	injected.Counters["serve/cache/misses"] = 2*cur.Counters["serve/cache/misses"] + 10
	if regs := telemetry.CompareSnapshots(baseline, injected, watch, 0.10).Regressions(); len(regs) == 0 {
		return fail("live metrics gate", fmt.Errorf("injected cache-miss regression not flagged"))
	}
	fmt.Fprintln(os.Stderr, "serve-smoke: live metrics gate ok (steady state clean, injected regression flagged)")

	// 7. Clean shutdown.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fail("shutdown", err)
	}
	fmt.Fprintln(os.Stderr, "serve-smoke: clean shutdown; PASS")
	return 0
}

func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func getBody(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
	}
	return data, nil
}
