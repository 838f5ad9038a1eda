package main

// serve-mix: a closed loop of client sessions against an in-process
// kscope-serve daemon (serve.New with CacheDir set and the daemon's own
// defaults otherwise) over loopback HTTP. Callers of the daemon are build and
// CI tools that wait for each answer, hence the closed loop.
//
// The mix is seeded. One request in twenty submits a program the daemon has
// never seen (a paper app or a small generated program, each made unique by a
// fresh global), which is a miss; some re-query a known program under a new
// configuration, a miss that reuses the shared fallback stage; the rest are
// hits spread over /analyze, /pointsto, /cfi-targets and /invariants. More
// programs pass through than the daemon holds, so FIFO eviction and disk
// deletes run. Set-up restarts the daemon over a store an earlier, untimed
// daemon generation filled, so warm-from-disk loading is measured.
//
// The mix is a model, not recorded traffic: no trace of the daemon's real
// callers exists. The one-in-twenty new-program share and the 100-1k node
// range of generated programs are the specified shape of the workload. The
// other shares below (re-query rate, paper-app share, uniform endpoint and
// configuration picks) are assumptions, each with its basis noted.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/minic"
	"repro/internal/persist"
	"repro/internal/pointsto"
	"repro/internal/serve"
	"repro/internal/workload"
)

const (
	daemonPrograms = 128 // the daemon's default MaxPrograms: its FIFO capacity
	evictMargin    = 4   // oldest FIFO positions the mix never predicts a hit on
	warmPrograms   = 96  // programs the untimed first generation stores (3/4 of the FIFO)
	newEvery       = 20  // one request in newEvery submits a never-seen program (specified)
	sampleEvery    = 16  // one in sampleEvery /pointsto and /cfi-targets hits is checked in-process
	maxSamplePairs = 48  // distinct (program, config) pairs checked in-process
	missSamples    = 20  // new-program misses per session re-run in-process when traced
	probePrograms  = 16  // warm programs whose answers are compared across the restart

	// Assumed, not measured. A re-query miss is rarer than a new-program
	// miss (each program has only two other configurations to re-query);
	// one in 32 keeps it below the one in 20 and is otherwise arbitrary.
	requeryEvery = 32
	// Assumed, not measured: the share of new programs that are paper apps
	// rather than generated ones. It keeps the generated programs, whose
	// size the workload specifies, the majority.
	paperShare = 0.3
)

// wireConfigs are the configurations requests carry, drawn uniformly (an
// assumption). They are the set the daemon's own load generator uses
// (internal/serve/loadgen.go loadConfigs): the default, the no-invariant
// baseline, and one partial configuration.
var wireConfigs = []struct {
	name string
	cfg  invariant.Config
}{
	{"all", invariant.All()},
	{"baseline", invariant.Config{}},
	{"pa-pwc", invariant.Config{PA: true, PWC: true}},
}

func configNamed(name string) invariant.Config {
	for _, c := range wireConfigs {
		if c.name == name {
			return c.cfg
		}
	}
	panic("unknown wire config " + name)
}

type ptrQuery struct{ fn, reg string }

// program is one submitted source and what the benchmark knows the daemon
// holds for it. solved and pending are guarded by mixModel.mu.
type program struct {
	src     string
	hash    string // hex SHA-256 of src, the identity the daemon echoes
	ptrs    []ptrQuery
	warm    bool            // stored by the earlier generation: FIFO order among the warm set is unknown
	solved  map[string]bool // configs whose analysis the daemon holds
	pending map[string]bool // configs with a miss in flight
}

func newProgramFrom(src string, ptrs []ptrQuery) *program {
	sum := sha256.Sum256([]byte(src))
	return &program{src: src, hash: hex.EncodeToString(sum[:]), ptrs: ptrs,
		solved: map[string]bool{}, pending: map[string]bool{}}
}

// paperApp is a paper app's source with pointers worth querying.
type paperApp struct {
	src  string
	ptrs []ptrQuery
}

func paperApps() ([]paperApp, error) {
	var out []paperApp
	for _, app := range workload.Apps() {
		m, err := minic.Compile(app.Name, app.Source)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", app.Name, err)
		}
		a := paperApp{src: app.Source}
		for _, p := range core.Analyze(m, invariant.Config{}).Fallback.TopLevelPointers() {
			if len(a.ptrs) < 16 {
				a.ptrs = append(a.ptrs, ptrQuery{p.Fn, p.Reg})
			}
		}
		out = append(out, a)
	}
	return out, nil
}

// programDeck draws programs the daemon has never seen. Kinds (paper app or
// generated) and generated sizes are dealt from seeded shuffles of the full
// mix, reshuffled when used up, so the seed changes which program comes
// when but every run holds the same mix of sizes.
type programDeck struct {
	rng   *rand.Rand
	kinds []bool // true: a paper app
	sizes []int  // ScaledProgram units
}

// next draws the next program: tag names a global that makes the source
// unique.
func (d *programDeck) next(tag string, paper []paperApp, small bool) *program {
	if len(d.kinds) == 0 {
		d.kinds = make([]bool, 10)
		for i := range d.kinds {
			d.kinds[i] = float64(i) < paperShare*10
		}
		d.rng.Shuffle(len(d.kinds), func(i, j int) { d.kinds[i], d.kinds[j] = d.kinds[j], d.kinds[i] })
	}
	isPaper := d.kinds[0]
	d.kinds = d.kinds[1:]
	prefix := fmt.Sprintf("int kbench_%s;\n", tag)
	if isPaper {
		a := paper[d.rng.Intn(len(paper))]
		return newProgramFrom(prefix+a.src, a.ptrs)
	}
	if len(d.sizes) == 0 {
		d.sizes = d.rng.Perm(32) // + 3 below: 3 to 34 units, ~100 to ~1k constraint nodes
	}
	units := 3 + d.sizes[0]
	d.sizes = d.sizes[1:]
	if small {
		units = 3
	}
	ptrs := make([]ptrQuery, units)
	for k := range ptrs {
		ptrs[k] = ptrQuery{fn: fmt.Sprintf("unit%d", k)}
	}
	return newProgramFrom(prefix+workload.ScaledProgram(d.rng.Int63(), units), ptrs)
}

// mixModel is the benchmark's model of the daemon's program FIFO, from
// which it predicts every cached flag. Programs enter at send time, so the
// model never lags the daemon; two programs sent at once by two sessions may
// enter the daemon in the other order, which only matters at the oldest
// positions, and no hit is predicted there.
type mixModel struct {
	mu      sync.Mutex
	fifo    []*program // oldest first
	evicted int
	pairs   map[string]bool // (program, config) pairs whose answers are checked in-process
}

// insert adds a never-seen program, evicting the oldest past capacity. Once
// a warm program is evicted, which warm program the daemon dropped is
// unknown, so no warm program is used again.
func (m *mixModel) insert(p *program) {
	m.fifo = append(m.fifo, p)
	if len(m.fifo) > daemonPrograms {
		m.fifo = m.fifo[1:]
		m.evicted++
	}
}

// pick returns a random program the daemon surely holds that satisfies ok,
// or nil.
func (m *mixModel) pick(rng *rand.Rand, ok func(*program) bool) *program {
	var cands []*program
	for i := evictMargin; i < len(m.fifo); i++ {
		p := m.fifo[i]
		if (!p.warm || m.evicted == 0) && ok(p) {
			cands = append(cands, p)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[rng.Intn(len(cands))]
}

func solvedConfigs(p *program) []string {
	var out []string
	for _, c := range wireConfigs {
		if p.solved[c.name] {
			out = append(out, c.name)
		}
	}
	return out
}

// daemon is one in-process kscope-serve generation on a loopback port.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startDaemon(cfg serve.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{srv: serve.New(cfg), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	if err := d.srv.PersistError(); err != nil {
		ln.Close()
		return nil, fmt.Errorf("open cache dir: %w", err)
	}
	d.hs = &http.Server{Handler: d.srv}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// waitReady polls /readyz until it answers 200 and returns the number of
// records the daemon warm-loaded.
func (d *daemon) waitReady(c *http.Client) (int64, error) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(d.url + "/readyz")
		if err == nil {
			var body struct {
				WarmLoaded int64 `json:"warm_loaded"`
			}
			decodeErr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && decodeErr == nil {
				return body.WarmLoaded, nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return 0, errors.New("daemon not ready after 60s")
}

// stop drains the daemon the way kscope-serve shuts down and waits for its
// server goroutine to end.
func (d *daemon) stop() error {
	d.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serveErr := <-d.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	if _, failed := d.srv.FlushDirty(); failed > 0 && err == nil {
		err = fmt.Errorf("%d records failed to flush at drain", failed)
	}
	return err
}

// request is the wire body of every analysis endpoint.
type request struct {
	Source string `json:"source"`
	Config string `json:"config,omitempty"`
	Fn     string `json:"fn,omitempty"`
	Reg    string `json:"reg,omitempty"`
}

// endpoints are the hit endpoints, drawn uniformly (an assumption: the
// workload specifies hits spread over all four, not their shares).
var endpoints = []string{"/analyze", "/pointsto", "/cfi-targets", "/invariants"}

// serveRun is the state one serve-mix run shares between its sessions.
type serveRun struct {
	o      options
	rep    *report
	client *http.Client
	paper  []paperApp
	model  *mixModel
}

// post sends one request and returns the status, the body (after the test
// hook) and the round-trip latency.
func (r *serveRun) post(url, endpoint string, req request) (int, []byte, time.Duration, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := r.client.Post(url+endpoint, "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if r.o.tamperServe != nil {
		body = r.o.tamperServe(endpoint, body)
	}
	return resp.StatusCode, body, lat, err
}

// analyze posts /analyze for (p, cfg) and checks the answer, including the
// cached flag the model predicts. It reports the latency, the cached flag,
// and whether the daemon served the analysis (right or wrong), which is
// what the model must track.
func (r *serveRun) analyze(url string, p *program, cfg string, wantCached bool) (lat time.Duration, cached, served bool) {
	status, body, lat, err := r.post(url, "/analyze", request{Source: p.src, Config: cfg})
	if err != nil || status != http.StatusOK {
		r.rep.fail("/analyze %s %s: status %d, %v", p.hash[:12], cfg, status, err)
		return lat, false, false
	}
	var ans struct {
		Program string `json:"program"`
		Config  string `json:"config"`
		Cached  bool   `json:"cached"`
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		r.rep.fail("/analyze %s %s: undecodable answer: %v", p.hash[:12], cfg, err)
		return lat, false, false
	}
	var problems []string
	if ans.Cached != wantCached {
		problems = append(problems, fmt.Sprintf("cached=%v, the mix predicts %v", ans.Cached, wantCached))
	}
	if ans.Program != p.hash || ans.Config != configNamed(cfg).Name() {
		problems = append(problems, fmt.Sprintf("answer names program %s config %s", ans.Program, ans.Config))
	}
	r.rep.check(fmt.Sprintf("/analyze %s %s", p.hash[:12], cfg), problems)
	return lat, ans.Cached, true
}

// session is one closed-loop client.
type session struct {
	id      int
	rng     *rand.Rand
	deck    programDeck
	made    int // programs this session created
	hits    []float64
	misses  []float64
	cached  int // /analyze answers with cached=true
	analyze int // /analyze answers
	samples []answerSample
	missed  []missSample // reservoir of new-program misses
	seen    int          // new-program misses so far, for the reservoir
}

// answerSample is a /pointsto or /cfi-targets answer kept for the
// in-process check after the loop.
type answerSample struct {
	p        *program
	cfg      string
	endpoint string
	q        ptrQuery
	body     []byte
}

// missSample is one new-program miss, re-run in-process by the traced run.
type missSample struct {
	p       *program
	latency time.Duration
}

// run drives requests until the deadline. Misses come on a fixed schedule,
// so every run has the same miss share; which program, configuration and
// endpoint a request uses is drawn from the session's seeded generator.
func (s *session) run(r *serveRun, url string, hitsOnly bool, deadline time.Time) {
	for n := 0; time.Now().Before(deadline); n++ {
		switch {
		case !hitsOnly && n%newEvery == 0:
			s.submitNew(r, url)
		case !hitsOnly && n%requeryEvery == requeryEvery/2 && s.requery(r, url):
		case s.hit(r, url):
		case !hitsOnly:
			s.submitNew(r, url)
		default:
			r.rep.fail("session %d: no program to query", s.id)
			return
		}
	}
}

func (s *session) submitNew(r *serveRun, url string) {
	p := s.deck.next(fmt.Sprintf("c%d_n%d", s.id, s.made), r.paper, r.o.small)
	s.made++
	r.model.mu.Lock()
	r.model.insert(p)
	p.pending["all"] = true
	r.model.mu.Unlock()
	lat, _, ok := r.analyze(url, p, "all", false)
	r.model.mu.Lock()
	delete(p.pending, "all")
	if ok {
		p.solved["all"] = true
	}
	r.model.mu.Unlock()
	s.misses = append(s.misses, ms(lat))
	s.analyze++
	// Reservoir sampling keeps a uniform sample of the run's misses.
	s.seen++
	if len(s.missed) < missSamples {
		s.missed = append(s.missed, missSample{p, lat})
	} else if k := s.rng.Intn(s.seen); k < missSamples {
		s.missed[k] = missSample{p, lat}
	}
}

// requery re-queries a known program under a configuration the daemon has
// not solved for it; false when no such program exists.
func (s *session) requery(r *serveRun, url string) bool {
	r.model.mu.Lock()
	var cfg string
	p := r.model.pick(s.rng, func(p *program) bool { return len(p.solved) > 0 && len(p.solved)+len(p.pending) < len(wireConfigs) })
	if p != nil {
		var open []string
		for _, c := range wireConfigs {
			if !p.solved[c.name] && !p.pending[c.name] {
				open = append(open, c.name)
			}
		}
		cfg = open[s.rng.Intn(len(open))]
		p.pending[cfg] = true
	}
	r.model.mu.Unlock()
	if p == nil {
		return false
	}
	lat, _, ok := r.analyze(url, p, cfg, false)
	r.model.mu.Lock()
	delete(p.pending, cfg)
	if ok {
		p.solved[cfg] = true
	}
	r.model.mu.Unlock()
	s.misses = append(s.misses, ms(lat))
	s.analyze++
	return true
}

// hit queries an analysis the daemon holds on a random endpoint; false when
// the daemon surely holds none.
func (s *session) hit(r *serveRun, url string) bool {
	endpoint := endpoints[s.rng.Intn(len(endpoints))]
	r.model.mu.Lock()
	p := r.model.pick(s.rng, func(p *program) bool { return len(p.solved) > 0 })
	var cfg string
	var sampled bool
	if p != nil {
		cfgs := solvedConfigs(p)
		cfg = cfgs[s.rng.Intn(len(cfgs))]
		pair := p.hash + "." + cfg
		sampled = (endpoint == "/pointsto" || endpoint == "/cfi-targets") && s.rng.Intn(sampleEvery) == 0 &&
			(r.model.pairs[pair] || len(r.model.pairs) < maxSamplePairs)
		if sampled {
			r.model.pairs[pair] = true
		}
	}
	r.model.mu.Unlock()
	if p == nil {
		return false
	}
	if endpoint == "/analyze" {
		lat, cached, _ := r.analyze(url, p, cfg, true)
		s.hits = append(s.hits, ms(lat))
		s.analyze++
		if cached {
			s.cached++
		}
		return true
	}
	req := request{Source: p.src, Config: cfg}
	q := p.ptrs[s.rng.Intn(len(p.ptrs))]
	if endpoint == "/pointsto" {
		req.Fn, req.Reg = q.fn, q.reg
	}
	status, body, lat, err := r.post(url, endpoint, req)
	s.hits = append(s.hits, ms(lat))
	if err != nil || status != http.StatusOK {
		r.rep.fail("%s %s %s: status %d, %v", endpoint, p.hash[:12], cfg, status, err)
		return true
	}
	r.rep.ok()
	if sampled {
		s.samples = append(s.samples, answerSample{p: p, cfg: cfg, endpoint: endpoint, q: q, body: body})
	}
	return true
}

// loop runs the sessions against one daemon until the deadline.
func (r *serveRun) loop(url string, sessions []*session, hitsOnly bool, d time.Duration) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, s := range sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			s.run(r, url, hitsOnly, deadline)
		}(s)
	}
	wg.Wait()
	return time.Since(start)
}

func runServe(o options) (*report, error) {
	rep := newReport()
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store := filepath.Join(dir, "store")

	paper, err := paperApps()
	if err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 4}
	defer transport.CloseIdleConnections()
	r := &serveRun{o: o, rep: rep, paper: paper,
		client: &http.Client{Transport: transport, Timeout: 60 * time.Second},
		model:  &mixModel{pairs: map[string]bool{}}}

	// The earlier, untimed generation fills the store.
	probes, err := r.fillStore(store, rand.New(rand.NewSource(o.seed)))
	if err != nil {
		return nil, err
	}

	// Set-up: restart the daemon over that store until /readyz is 200.
	var (
		d    *daemon
		warm int64
	)
	rep.e2e["setup_s"], err = measureSetup(func() error {
		if d, err = startDaemon(serve.Config{CacheDir: store}); err != nil {
			return err
		}
		warm, err = d.waitReady(r.client)
		return err
	}, func() error { return d.stop() })
	if err != nil {
		if d != nil {
			d.stop()
		}
		return nil, err
	}
	rep.layers["serve.warm_records"] = float64(warm)

	// Warm-loaded answers must be byte-identical to the generation that
	// wrote them.
	for _, pr := range probes {
		status, body, _, err := r.post(d.url, pr.endpoint, pr.req)
		var problems []string
		if err != nil || status != http.StatusOK || !bytes.Equal(body, pr.body) {
			problems = append(problems, fmt.Sprintf("status %d, %v: answer differs from the one the earlier generation gave", status, err))
		}
		rep.check("warm "+pr.endpoint, problems)
	}

	clients := 2
	if n := runtime.NumCPU(); n < clients {
		clients = n
	}
	var sessions []*session
	for i := 0; i < clients; i++ {
		rng := rand.New(rand.NewSource(o.seed*7919 + int64(i)))
		sessions = append(sessions, &session{id: i, rng: rng, deck: programDeck{rng: rng}})
	}
	alloc0 := allocBytes()
	wall := r.loop(d.url, sessions, false, o.run)
	alloc := allocBytes() - alloc0
	if err := d.stop(); err != nil {
		return nil, err
	}

	var all, hits, misses []float64
	cached, analyzed := 0, 0
	var samples []answerSample
	var missed []missSample
	for _, s := range sessions {
		hits = append(hits, s.hits...)
		misses = append(misses, s.misses...)
		cached += s.cached
		analyzed += s.analyze
		samples = append(samples, s.samples...)
		missed = append(missed, s.missed...)
	}
	all = append(append(all, hits...), misses...)
	rep.e2e["op_p50_ms"] = median(all)
	rep.e2e["ops_per_s"] = float64(len(all)) / wall.Seconds()
	rep.e2e["alloc_mb_per_op"] = float64(alloc) / float64(len(all)) / 1e6
	l := rep.layers
	l["serve.hit_share"] = ratio(float64(cached), float64(analyzed))
	l["serve.hit_p50_ms"] = quantile(hits, 0.5)
	l["serve.hit_p99_ms"] = quantile(hits, 0.99)
	l["serve.miss_p50_ms"] = quantile(misses, 0.5)
	l["serve.miss_p90_ms"] = quantile(misses, 0.9)
	fmt.Fprintf(os.Stderr, "kbench: serve-mix: %d requests (%d hits, %d misses) in %v, %d answers checked in-process\n",
		len(all), len(hits), len(misses), wall.Round(time.Millisecond), len(samples))

	if err := checkSamples(rep, samples); err != nil {
		return nil, err
	}
	if o.trace {
		if err := r.traceServe(store, sessions, missed); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// probe is one answer the earlier generation gave, replayed after restart.
type probe struct {
	endpoint string
	req      request
	body     []byte
}

// fillStore runs the earlier daemon generation: it submits warmPrograms
// never-seen programs (a third also under a second configuration), records
// the answers later compared across the restart, and drains.
func (r *serveRun) fillStore(store string, rng *rand.Rand) ([]probe, error) {
	d, err := startDaemon(serve.Config{CacheDir: store})
	if err != nil {
		return nil, err
	}
	if _, err := d.waitReady(r.client); err != nil {
		d.stop()
		return nil, err
	}
	deck := &programDeck{rng: rng}
	for i := 0; i < warmPrograms; i++ {
		p := deck.next(fmt.Sprintf("g0_n%d", i), r.paper, r.o.small)
		p.warm = true
		r.model.insert(p)
		cfgs := []string{"all"}
		if rng.Intn(3) == 0 {
			cfgs = append(cfgs, wireConfigs[1+rng.Intn(len(wireConfigs)-1)].name)
		}
		for _, c := range cfgs {
			if _, _, ok := r.analyze(d.url, p, c, false); ok {
				p.solved[c] = true
			}
		}
	}
	var probes []probe
	for _, p := range r.model.fifo[len(r.model.fifo)-probePrograms:] {
		for _, c := range solvedConfigs(p) {
			q := p.ptrs[0]
			for _, pr := range []probe{
				{endpoint: "/pointsto", req: request{Source: p.src, Config: c, Fn: q.fn, Reg: q.reg}},
				{endpoint: "/cfi-targets", req: request{Source: p.src, Config: c}},
				{endpoint: "/invariants", req: request{Source: p.src, Config: c}},
			} {
				status, body, _, err := r.post(d.url, pr.endpoint, pr.req)
				if err != nil || status != http.StatusOK {
					d.stop()
					return nil, fmt.Errorf("earlier generation %s: status %d, %v", pr.endpoint, status, err)
				}
				pr.body = body
				probes = append(probes, pr)
			}
		}
	}
	return probes, d.stop()
}

// pointstoAnswer and cfiAnswer are the wire answers the in-process check
// decodes.
type pointstoAnswer struct {
	Program    string   `json:"program"`
	Config     string   `json:"config"`
	Optimistic []string `json:"optimistic"`
	Fallback   []string `json:"fallback"`
}

type cfiAnswer struct {
	Program string `json:"program"`
	Config  string `json:"config"`
	Sites   []struct {
		Site       int      `json:"site"`
		Optimistic []string `json:"optimistic"`
		Fallback   []string `json:"fallback"`
	} `json:"sites"`
}

// checkSamples compares sampled daemon answers with core.Analyze run
// in-process on the same source and configuration.
func checkSamples(rep *report, samples []answerSample) error {
	systems := map[string]*core.System{}
	for _, s := range samples {
		key := s.p.hash + "." + s.cfg
		sys := systems[key]
		if sys == nil {
			m, err := minic.Compile(s.p.hash, s.p.src)
			if err != nil {
				return fmt.Errorf("in-process compile: %w", err)
			}
			sys = core.Analyze(m, configNamed(s.cfg))
			systems[key] = sys
		}
		rep.check(fmt.Sprintf("%s %s %s vs in-process analysis", s.endpoint, s.p.hash[:12], s.cfg), sampleProblems(s, sys))
	}
	return nil
}

func sampleProblems(s answerSample, sys *core.System) []string {
	wantCfg := configNamed(s.cfg).Name()
	switch s.endpoint {
	case "/pointsto":
		var got pointstoAnswer
		if err := json.Unmarshal(s.body, &got); err != nil {
			return []string{err.Error()}
		}
		wantOpt, wantFb := labels(sys.Optimistic, s.q), labels(sys.Fallback, s.q)
		if got.Program != s.p.hash || got.Config != wantCfg || !equal(got.Optimistic, wantOpt) || !equal(got.Fallback, wantFb) {
			return []string{fmt.Sprintf("%s:%s answered %v/%v, in-process %v/%v", s.q.fn, s.q.reg,
				got.Optimistic, got.Fallback, wantOpt, wantFb)}
		}
	case "/cfi-targets":
		var got cfiAnswer
		if err := json.Unmarshal(s.body, &got); err != nil {
			return []string{err.Error()}
		}
		sites := sys.Optimistic.ICallSites()
		if got.Program != s.p.hash || got.Config != wantCfg || len(got.Sites) != len(sites) {
			return []string{fmt.Sprintf("answered %d callsites, in-process %d", len(got.Sites), len(sites))}
		}
		for i, site := range sites {
			g := got.Sites[i]
			wo, wf := sys.Optimistic.CallTargets(site), sys.Fallback.CallTargets(site)
			if g.Site != site || !equal(g.Optimistic, wo) || !equal(g.Fallback, wf) {
				return []string{fmt.Sprintf("icall #%d answered %v/%v, in-process #%d %v/%v", g.Site, g.Optimistic, g.Fallback, site, wo, wf)}
			}
		}
	}
	return nil
}

// labels renders one pointer's points-to set the way the daemon names
// objects.
func labels(r *pointsto.Result, q ptrQuery) []string {
	refs := r.ReturnPointsTo(q.fn)
	if q.reg != "" {
		refs = r.PointsTo(q.fn, q.reg)
	}
	out := make([]string, len(refs))
	for i, ref := range refs {
		out[i] = ref.String()
	}
	return out
}

// traceServe measures the serve-mix layers after the loop: the daemon's
// tracing cost on hits, the persist store on the daemon's own records, and
// where a new-program miss spends its time.
func (r *serveRun) traceServe(store string, sessions []*session, missed []missSample) error {
	l := r.rep.layers

	// Tracing on (the daemon default) against off, hits only, alternating
	// short generations over the store the loop left behind so slow host
	// drift falls on both sides. Differences below the host's run-to-run
	// drift (README.md) still do not show.
	p50 := map[bool][]float64{}
	for i := 0; i < 8; i++ {
		off := i%2 == 1
		d, err := startDaemon(serve.Config{CacheDir: store, DisableTracing: off})
		if err != nil {
			return err
		}
		if _, err := d.waitReady(r.client); err != nil {
			d.stop()
			return err
		}
		for _, s := range sessions {
			s.hits = s.hits[:0]
		}
		r.loop(d.url, sessions, true, r.o.run/16)
		if err := d.stop(); err != nil {
			return err
		}
		var hits []float64
		for _, s := range sessions {
			hits = append(hits, s.hits...)
		}
		p50[off] = append(p50[off], median(hits))
	}
	l["serve.tracing_overhead"] = ratio(median(p50[false]), median(p50[true])) - 1

	// The persist store on the daemon's own record bytes.
	st, err := persist.Open(store, nil)
	if err != nil {
		return err
	}
	scratch, err := persist.Open(store+"-probe", nil)
	if err != nil {
		return err
	}
	defer os.RemoveAll(store + "-probe")
	keys, err := st.Keys()
	if err != nil {
		return err
	}
	var loads, saves, sizes []float64
	for i, key := range keys {
		if i == 32 {
			break
		}
		start := time.Now()
		payload, err := st.Load(key)
		loads = append(loads, ms(time.Since(start)))
		if err != nil {
			return fmt.Errorf("load %s: %w", key, err)
		}
		sizes = append(sizes, float64(len(payload))/1e3)
		start = time.Now()
		if err := scratch.Save(key, payload); err != nil {
			return fmt.Errorf("save %s: %w", key, err)
		}
		saves = append(saves, ms(time.Since(start)))
		back, err := scratch.Load(key)
		var problems []string
		if err != nil || !bytes.Equal(back, payload) {
			problems = append(problems, fmt.Sprintf("record %s did not survive a save and load: %v", key, err))
		}
		r.rep.check("persist round trip", problems)
	}
	l["persist.load_ms"] = median(loads)
	l["persist.save_ms"] = median(saves)
	l["persist.record_kb"] = median(sizes)

	// A new-program miss in-process, one layer call at a time.
	sort.Slice(missed, func(i, j int) bool { return missed[i].p.hash < missed[j].p.hash })
	var jobs []job
	for _, m := range missed {
		jobs = append(jobs, job{name: m.p.hash, src: m.p.src, cfg: invariant.All()})
	}
	passes, err := traceJobs(jobs, r.o.run/4, 3)
	if err != nil {
		return err
	}
	analysisLayers(r.rep, passes, len(jobs))
	var comp, anal, resid []float64
	for i, m := range missed {
		var c, a []float64
		for _, p := range passes {
			lt := p.layers[i]
			c = append(c, ms(lt.compile))
			a = append(a, ms(lt.fbBuild+lt.fbSolve+lt.optBuild+lt.optSolve))
		}
		comp = append(comp, median(c))
		anal = append(anal, median(a))
		resid = append(resid, ms(m.latency)-median(c)-median(a))
	}
	l["serve.miss_compile_ms"] = median(comp)
	l["serve.miss_analyze_ms"] = median(anal)
	l["serve.miss_residual_ms"] = median(resid)
	return nil
}
