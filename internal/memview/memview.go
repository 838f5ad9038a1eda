// Package memview implements Invariant-Guided Memory Views (§3, §5): the
// optimistic and fallback views produced by the IGO analysis, the secure
// view switcher, and the runtime monitors that detect likely-invariant
// violations and trigger the switch.
package memview

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/cfi"
	"repro/internal/invariant"
)

// Violation records a likely-invariant violation observed at runtime.
type Violation struct {
	Kind   invariant.Kind
	Site   int    // instruction where the monitor fired
	Detail string // human-readable description
}

func (v Violation) String() string {
	return fmt.Sprintf("%s invariant violated at #%d: %s", v.Kind, v.Site, v.Detail)
}

// ErrBadGate is returned when the switcher is entered without the secret
// (an illegitimate jump into the MV switch code, §5).
var ErrBadGate = fmt.Errorf("memview: secure gate check failed: invalid secret")

// Switcher holds the two memory views, a hardened program's optimistic and
// fallback CFI policies, and performs the secure, one-way
// optimistic→fallback switch. Legitimate callers must present the 64-bit
// secret issued at construction, modeling the stack-secret gate of §5.
//
// A Switcher is safe for concurrent use: monitors may fire from multiple
// goroutines, and a violation storm produces exactly one view transition
// while every violation is still recorded (Switch is one-way idempotent).
type Switcher struct {
	optimistic *cfi.Policy
	fallback   *cfi.Policy
	secret     uint64

	mu         sync.Mutex
	active     *cfi.Policy
	violations []Violation
	badGates   int64
}

// NewSwitcher creates a switcher starting on the optimistic view and returns
// it together with the gate secret that legitimate monitor code must
// present. The policies are only read, so any number of switchers may share
// them.
func NewSwitcher(optimistic, fallback *cfi.Policy) (*Switcher, uint64) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// The gate secret only defends the simulated switch path; fall back
		// to a fixed pattern rather than failing the run.
		binary.LittleEndian.PutUint64(b[:], 0x6b616c656964_6f73)
	}
	secret := binary.LittleEndian.Uint64(b[:]) | 1 // never zero
	s := &Switcher{optimistic: optimistic, fallback: fallback, active: optimistic, secret: secret}
	return s, secret
}

// Active returns the currently installed view.
func (s *Switcher) Active() *cfi.Policy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Switched reports whether the fallback view is installed.
func (s *Switcher) Switched() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active == s.fallback
}

// Violations returns a copy of the recorded invariant violations, in the
// order the switcher accepted them.
func (s *Switcher) Violations() []Violation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Violation, len(s.violations))
	copy(out, s.violations)
	return out
}

// BadGateAttempts returns how many Switch calls presented a wrong secret.
func (s *Switcher) BadGateAttempts() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.badGates
}

// Switch installs the fallback view. The caller must present the gate
// secret; a wrong secret is rejected with ErrBadGate (and counted as an
// attempted illegitimate entry). Switch is one-way and idempotent: however
// many violations race in, the view transitions optimistic→fallback exactly
// once and never back, and every accepted violation is recorded.
func (s *Switcher) Switch(gate uint64, v Violation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if gate != s.secret {
		s.badGates++
		return ErrBadGate
	}
	s.violations = append(s.violations, v)
	s.active = s.fallback
	return nil
}

// Handler returns the switcher's monitor-runtime handler: a violation
// enters the switch presenting secret, and a CFI lookup reads the active
// view. Monitors are legitimate switcher-entry code, so they hold the gate
// secret (the stack-secret push of §5).
func (s *Switcher) Handler(secret uint64) Handler { return &switchHandler{sw: s, secret: secret} }

// switchHandler is the §5 two-view handler.
type switchHandler struct {
	sw     *Switcher
	secret uint64
}

func (h *switchHandler) OnViolation(v Violation) { _ = h.sw.Switch(h.secret, v) }

func (h *switchHandler) Permits(site int, target string) bool {
	return h.sw.Active().Permits(site, target)
}
