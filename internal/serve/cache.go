package serve

// The daemon's one cache, under one mutex: a FIFO of programs keyed by
// content hash, each with its source, its module (compiled lazily for
// warm-loaded programs) and one single-flight slot per configuration,
// holding its snapshot once solved. A configuration's flight runs one
// analysis, which derives its own fallback (stage ① of Figure 4), projects
// the two views into a snapshot and writes it through to the store before
// the slot is installed, all under the request context. A resident program
// pins only its snapshots, never a solver result; evictOldest is the only
// way a program leaves.
//
// Failures are never cached: the failing leader first unlinks its slot
// (only if it is still its own, never a newer flight's), then closes done.
// Its waiters hold the slot and still see the shared error; a request
// arriving after the unlink recomputes. An error thus reaches exactly the
// waiters of the flight that produced it.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/invariant"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/persist"
	"repro/internal/pointsto"
	"repro/internal/telemetry"
)

type program struct {
	hash, source string
	once         sync.Once // compiles mod on first need
	mod          *ir.Module
	err          error
	slots        map[string]*slot // config name → slot; guarded by cache.mu
}

// compile compiles the program once, under a minic/compile span of ctx.
func (p *program) compile(ctx context.Context, metrics *telemetry.Registry) error {
	p.once.Do(func() {
		_, _, finish := telemetry.StartSpanCtx(ctx, metrics, "minic/compile")
		defer finish()
		p.mod, p.err = minic.Compile("prog-"+p.hash[:16], p.source)
	})
	return p.err
}

// slot is one single-flight computation. Its leader fills res, sets ok or
// err under cache.mu, and closes done, which only requesters of a slot not
// yet ok wait on.
type slot struct {
	done  chan struct{}
	res   *servedResult
	err   error
	ok    bool // guarded by cache.mu
	dirty bool // guarded by cache.mu: solved, but the disk save failed
}

type cache struct {
	metrics *telemetry.Registry
	store   *persist.Store    // write-through target; nil = memory-only
	max     int               // resident programs before FIFO eviction
	budget  pointsto.Budget   // per-stage budget of every analysis
	faults  *faultinject.Plan // CachePoison fires once per analysis

	mu    sync.Mutex
	progs map[string]*program // content hash → resident program
	order []string            // resident hashes, oldest first
}

// lookup returns the solved snapshot of (hash, config) if it is resident:
// the hit path, which needs neither a compile nor admission.
func (c *cache) lookup(hash, cfg string) *servedResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.progs[hash]; p != nil && p.slots[cfg] != nil && p.slots[cfg].ok {
		return p.slots[cfg].res
	}
	return nil
}

// program returns the resident program of hash, or compiles src and inserts
// it: a malformed submission never enters the FIFO, so it evicts nothing.
// A compile, if one runs, is a minic/compile span of ctx's trace.
func (c *cache) program(ctx context.Context, hash, src string) (*program, error) {
	c.mu.Lock()
	p := c.progs[hash]
	c.mu.Unlock()
	if p == nil {
		if p = (&program{hash: hash, source: src, slots: map[string]*slot{}}); p.compile(ctx, c.metrics) != nil {
			return nil, p.err
		}
		c.mu.Lock()
		p = c.insert(p) // a concurrent insert (e.g. a warm-load) may have won
		c.mu.Unlock()
	}
	return p, p.compile(ctx, c.metrics)
}

// warm installs a snapshot loaded from disk through the same insert as a
// live submission; a slot already there (a concurrent solve) wins.
func (c *cache) warm(hash, src, cfg string, res *servedResult) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.insert(&program{hash: hash, source: src, slots: map[string]*slot{}})
	if p.slots[cfg] != nil {
		return false
	}
	p.slots[cfg] = &slot{res: res, ok: true}
	return true
}

// insert makes p resident — unless its hash already is, and then returns
// that program — evicting the oldest program past the cap. c.mu held.
func (c *cache) insert(p *program) *program {
	if q := c.progs[p.hash]; q != nil {
		return q
	}
	if len(c.progs) >= c.max {
		c.evictOldest()
	}
	c.progs[p.hash] = p
	c.order = append(c.order, p.hash)
	c.metrics.Gauge("serve/cache/programs").Set(int64(len(c.progs)))
	return p
}

// evictOldest drops the oldest program with its slots and records, so a
// restart never resurrects what the FIFO dropped. Records of flights still
// running are deleted too: one may have been written already. Such a
// flight answers its own waiters but persists nothing more. c.mu held.
func (c *cache) evictOldest() {
	p := c.progs[c.order[0]]
	c.order = c.order[1:]
	delete(c.progs, p.hash)
	if c.store != nil {
		for cfg := range p.slots {
			c.store.Delete(persistKey(p.hash, cfg))
		}
	}
	c.metrics.Counter("serve/cache/programs-evicted").Inc()
}

// do returns p's slot for key — solved, awaited, or led through compute.
func (c *cache) do(ctx context.Context, p *program, key string, compute func(*slot) error) (*slot, error) {
	c.mu.Lock()
	if sl := p.slots[key]; sl != nil {
		ok := sl.ok
		c.mu.Unlock()
		if ok {
			return sl, nil
		}
		_, _, finish := telemetry.StartSpanCtx(ctx, c.metrics, "serve/cache/wait")
		defer finish()
		telemetry.TraceFrom(ctx).Annotate("solve", "coalesced")
		select {
		case <-sl.done:
			return sl, sl.err
		case <-ctx.Done(): // this waiter gives up; the flight runs on for the others
			return nil, fmt.Errorf("serve: cache wait for %s/%s: %w", p.hash[:16], key, ctx.Err())
		}
	}
	sl := &slot{done: make(chan struct{})}
	p.slots[key] = sl
	c.mu.Unlock()
	err := compute(sl)
	c.mu.Lock()
	sl.ok, sl.err = err == nil, err
	if err != nil && p.slots[key] == sl {
		delete(p.slots, key)
	}
	c.mu.Unlock()
	if err != nil {
		c.metrics.Counter("serve/cache/invalidations").Inc()
	}
	close(sl.done)
	return sl, err
}

// solve returns p's snapshot under cfg: one analysis, which counts into
// serve/cache/solves after the CachePoison site fires, projected over its
// own derived fallback and written through to the store. A request context
// that ends during the analysis, projection or before the write fails the
// flight with a typed abort: nothing is installed and no record is written.
func (c *cache) solve(ctx context.Context, p *program, cfg invariant.Config) (*servedResult, error) {
	sl, err := c.do(ctx, p, cfg.Name(), func(sl *slot) error {
		c.metrics.Counter("serve/cache/solves").Inc()
		if err := c.faults.Err(faultinject.CachePoison); err != nil {
			return fmt.Errorf("serve: analysis of %s/%s failed: %w", p.hash[:16], cfg.Name(), err)
		}
		sys, err := core.AnalyzeCtx(ctx, p.mod, cfg, core.AnalyzeOpts{Metrics: c.metrics, Budget: c.budget, Faults: c.faults})
		if err != nil {
			return err
		}
		_, _, finish := telemetry.StartSpanCtx(ctx, c.metrics, "serve/project")
		snap, err := project(ctx, sys.Optimistic, sys.Fallback)
		if err == nil {
			sl.res = newServedResult(snap)
		}
		finish()
		if err != nil || c.store == nil {
			return err
		}
		// A failed save leaves sl dirty and the answer stands; only an
		// abort fails the flight.
		if err := c.persist(ctx, p, cfg.Name(), sl); errors.Is(err, pointsto.ErrSolveAborted) {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sl.res, nil
}

// persist writes a program's snapshot in sl to the store, if the program
// is resident, and settles the slot's dirty bit (a failed save is retried
// by FlushDirty). If ctx ends before the write it returns a typed abort and
// writes nothing. A program evicted during the save has its record taken
// back out, unless a resubmission of it holds the configuration again: no
// record outlives its program.
func (c *cache) persist(ctx context.Context, p *program, cfg string, sl *slot) error {
	_, _, finish := telemetry.StartSpanCtx(ctx, c.metrics, "serve/persist")
	defer finish()
	c.mu.Lock()
	resident := c.progs[p.hash] == p
	c.mu.Unlock()
	if !resident {
		return nil
	}
	key := persistKey(p.hash, cfg)
	payload, err := json.Marshal(persistRecord{Format: recordFormat, Source: p.source, Config: cfg, Snapshot: sl.res.snap})
	if err == nil {
		if err := abortIfDone(ctx, "record write"); err != nil {
			return err
		}
		err = c.store.Save(key, payload)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if q := c.progs[p.hash]; q == p {
		sl.dirty = err != nil
	} else if err == nil && (q == nil || q.slots[cfg] == nil) {
		c.store.Delete(key)
	}
	return err
}

// FlushDirty retries, in record-key order, every save that failed. The
// daemon calls it once the HTTP server has drained, so nothing solved in
// the final generation is lost to a transient write error.
func (s *Server) FlushDirty() (flushed, failed int) {
	var keys []string
	retry := map[string]func() error{}
	s.cache.mu.Lock()
	for _, p := range s.cache.progs {
		for cfg, sl := range p.slots {
			if sl.dirty {
				keys = append(keys, persistKey(p.hash, cfg))
				retry[keys[len(keys)-1]] = func() error { return s.cache.persist(context.Background(), p, cfg, sl) }
			}
		}
	}
	s.cache.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		if retry[k]() != nil {
			failed++
			s.metrics.Counter("serve/drain/flush-failures").Inc()
		} else {
			flushed++
			s.metrics.Counter("serve/drain/flushed").Inc()
		}
	}
	return flushed, failed
}
