package serve

// Persistence wiring: readiness, drain, and how a restarted daemon gets
// its solved snapshots back (cache.go writes them through).
//
// Warm-load runs once, in the background, between New and readiness. It
// reconstructs the dead daemon's cache in its original FIFO order (the
// store's Keys() are mtime-ordered, so record order mirrors solve order),
// bounded by MaxPrograms exactly like the live cache: overflow records are
// the ones eviction would already have deleted, so they are deleted now —
// disk and memory never disagree about what is cached. Every way a record
// can be bad (unreadable frame, checksum mismatch, payload that does not
// decode, payload that disagrees with its own key) converges on the same
// outcome: quarantine + cache miss + fresh solve on first query. A record
// written in another format (an older daemon's) is not bad, just stale: it
// is deleted, counted in persist/warm-stale, and re-solved on first query.

import (
	"context"
	"encoding/json"
	"errors"

	"repro/internal/persist"
	"repro/internal/telemetry"
)

// Readiness states (Server.state).
const (
	stateWarming int32 = iota
	stateReady
	stateDraining
)

func stateName(st int32) string {
	switch st {
	case stateWarming:
		return "warming"
	case stateDraining:
		return "draining"
	default:
		return "ready"
	}
}

// Ready reports whether the daemon accepts new analysis work (the /readyz
// predicate): warm-load finished and drain has not begun.
func (s *Server) Ready() bool { return s.state.Load() == stateReady }

// State returns the readiness state name: "warming", "ready", "draining".
func (s *Server) State() string { return stateName(s.state.Load()) }

// BeginDrain moves the daemon into the draining state: /readyz turns 503,
// new POST work is refused with a typed "draining" error, GET endpoints
// keep serving. Idempotent; it does not wait for in-flight requests (that
// is http.Server.Shutdown's job) and it interrupts a still-running
// warm-load at the next record boundary.
func (s *Server) BeginDrain() {
	if s.state.Swap(stateDraining) != stateDraining {
		s.metrics.Counter("serve/drain/begun").Inc()
	}
}

// WaitWarm blocks until the warm-load pass finishes (immediately on a
// memory-only daemon) or ctx expires.
func (s *Server) WaitWarm(ctx context.Context) error {
	select {
	case <-s.warmDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// warmLoad replays the persistent store into the in-memory cache. Runs in
// its own goroutine; everything it touches is lock-protected or atomic.
func (s *Server) warmLoad() {
	defer close(s.warmDone)
	// Draining can begin mid-warm; never clobber that back to ready.
	defer s.state.CompareAndSwap(stateWarming, stateReady)
	_, _, finish := telemetry.StartSpanCtx(context.Background(), s.metrics, "serve/warm-load")
	defer finish()
	keys, err := s.cache.store.Keys()
	if err != nil {
		s.metrics.Counter("persist/warm-scan-failures").Inc()
		return
	}
	// Group records by program, preserving the store's oldest-first order.
	var progOrder []string
	byProg := map[string][]string{}
	for _, key := range keys {
		hash, _, ok := splitPersistKey(key)
		if !ok {
			// A stray file this daemon never wrote; leave it alone.
			s.metrics.Counter("persist/warm-skipped").Inc()
			continue
		}
		if byProg[hash] == nil {
			progOrder = append(progOrder, hash)
		}
		byProg[hash] = append(byProg[hash], key)
	}
	// Bound the warm set like the live cache. Overflow programs are the
	// oldest — the ones FIFO eviction would have deleted had the previous
	// daemon kept running — so delete their records rather than skip them:
	// disk stays coherent with the cache being rebuilt.
	if excess := len(progOrder) - s.cfg.MaxPrograms; excess > 0 {
		for _, hash := range progOrder[:excess] {
			for _, key := range byProg[hash] {
				s.cache.store.Delete(key)
				s.metrics.Counter("persist/warm-evicted").Inc()
			}
		}
		progOrder = progOrder[excess:]
	}
	total := 0
	for _, hash := range progOrder {
		total += len(byProg[hash])
	}
	s.warmTotal.Store(int64(total))
	for _, hash := range progOrder {
		for _, key := range byProg[hash] {
			if s.state.Load() == stateDraining {
				return
			}
			s.warmOne(hash, key)
		}
	}
}

// warmOne loads one record, cross-checks it against its key, and installs
// its snapshot. Every failure degrades to a miss (fresh solve on first
// query); failures that implicate the record itself also quarantine it.
func (s *Server) warmOne(hash, key string) {
	_, cfg, _ := splitPersistKey(key)
	payload, err := s.cache.store.Load(key)
	if err != nil {
		// The store already quarantined and counted a corrupt frame;
		// ErrNotExist (a raced delete) and I/O errors are plain misses.
		var ce *persist.CorruptEntryError
		if errors.As(err, &ce) {
			s.warmQuarantined.Add(1)
		}
		return
	}
	var rec persistRecord
	if err := json.Unmarshal(payload, &rec); err != nil || rec.Format != recordFormat {
		// Only a payload that names another format is stale; one whose
		// format cannot even be read is damaged.
		var head struct {
			Format int `json:"format"`
		}
		if json.Unmarshal(payload, &head) == nil && head.Format != recordFormat {
			s.cache.store.Delete(key)
			s.metrics.Counter("persist/warm-stale").Inc()
			return
		}
		s.quarantineWarm(key, "record payload does not decode to a result snapshot")
		return
	}
	if rec.Snapshot == nil || rec.Snapshot.check() != nil {
		s.quarantineWarm(key, "record snapshot is incomplete or names missing labels or sets")
		return
	}
	if hashSource(rec.Source) != hash || rec.Config != cfg {
		// The frame verified but describes a different analysis than its
		// key claims — semantic corruption, same treatment as bit rot.
		s.quarantineWarm(key, "record content disagrees with its key")
		return
	}
	if s.cache.warm(hash, rec.Source, cfg, newServedResult(rec.Snapshot)) {
		s.warmLoaded.Add(1)
		s.metrics.Counter("persist/warm-loaded").Inc()
	}
}

func (s *Server) quarantineWarm(key, reason string) {
	s.cache.store.Quarantine(key, reason)
	s.warmQuarantined.Add(1)
}
