package flightrec

import (
	"errors"
	"fmt"

	"reuseiq/internal/lockstep"
	"reuseiq/internal/pipeline"
)

// Session is a seekable cursor over an Archive. Seek(n) leaves a live
// machine positioned exactly at cycle n: forward by stepping the cursor's
// machine, backward by re-running a fresh machine from cycle 0. Replays run
// with the lockstep invariant checker attached (Verify, default on), so a
// non-deterministic replay fails loudly instead of presenting fabricated
// state.
type Session struct {
	A *Archive
	// Verify attaches the per-cycle invariant checker to every replay
	// machine. On by default (NewSession); turn off only for timing
	// measurements.
	Verify bool

	m *pipeline.Machine
	// Replayed counts cycles stepped across all seeks (diagnostics).
	Replayed uint64
}

// NewSession opens a verifying session over a. The cursor is unpositioned
// until the first Seek.
func NewSession(a *Archive) *Session {
	return &Session{A: a, Verify: true}
}

// Machine returns the live machine at the cursor (nil before the first
// Seek). Callers may inspect it freely; stepping it directly desynchronizes
// Cycle bookkeeping — use Step instead.
func (s *Session) Machine() *pipeline.Machine { return s.m }

// Cycle returns the cursor position (0 before the first Seek).
func (s *Session) Cycle() uint64 {
	if s.m == nil {
		return 0
	}
	return s.m.Cycle()
}

// Bounds returns the seekable cycle range [0, End].
func (s *Session) Bounds() (from, to uint64) {
	return 0, s.A.End
}

// Seek positions the cursor at cycle n. When the cursor is at or before n
// it continues from there; otherwise it replays a fresh machine from
// cycle 0. Seeking to the current cycle is a no-op.
func (s *Session) Seek(n uint64) error {
	if n > s.A.End {
		return fmt.Errorf("flightrec: cycle %d is beyond the recording's end (cycle %d)", n, s.A.End)
	}
	if s.m == nil || s.m.Cycle() > n {
		m := pipeline.New(s.A.Cfg, s.A.Prog)
		if s.Verify {
			lockstep.AttachChecker(m)
		}
		if s.m != nil {
			s.m.Release()
		}
		s.m = m
	}
	return s.advance(n)
}

// Step advances the cursor k cycles from where it stands.
func (s *Session) Step(k uint64) error {
	if s.m == nil {
		return errors.New("flightrec: session is unpositioned (seek first)")
	}
	return s.advance(s.m.Cycle() + k)
}

// RStep moves the cursor k cycles backward (a replay from cycle 0 under
// the hood — reverse stepping is a seek).
func (s *Session) RStep(k uint64) error {
	cur := s.Cycle()
	if s.m == nil {
		return errors.New("flightrec: session is unpositioned (seek first)")
	}
	if k > cur {
		k = cur
	}
	return s.Seek(cur - k)
}

// advance replays the live machine to cycle n, cycle by cycle, so
// watchpoints and dumps see every intermediate microarchitectural state.
func (s *Session) advance(n uint64) error {
	start := s.m.Cycle()
	if start >= n {
		return nil
	}
	err := s.m.RunBreakable(1, func() bool { return s.m.Cycle() >= n })
	s.Replayed += s.m.Cycle() - start
	switch {
	case errors.Is(err, pipeline.ErrStopped):
		return nil
	case errors.Is(err, pipeline.ErrCycleBudget) && s.m.Cycle() >= n:
		// The original run ended on this same budget; arriving at it is
		// the expected end of the recording, not a failure.
		return nil
	case err != nil:
		return fmt.Errorf("flightrec: replay diverged at cycle %d (seeking %d): %w", s.m.Cycle(), n, err)
	}
	// Run ended without the breaker firing: the machine halted (or hit its
	// cycle budget) before the target.
	if s.m.Cycle() < n && !s.m.Halted() {
		return fmt.Errorf("flightrec: replay stopped at cycle %d before target %d", s.m.Cycle(), n)
	}
	return nil
}

// RunUntil replays forward one cycle at a time until pred reports true
// (evaluated after every completed cycle) or the recording's end is
// reached, and reports whether the predicate fired. Watchpoints are built
// on it; pred must only inspect the machine, never mutate it.
func (s *Session) RunUntil(pred func(m *pipeline.Machine) bool) (bool, error) {
	if s.m == nil {
		return false, errors.New("flightrec: session is unpositioned (seek first)")
	}
	_, to := s.Bounds()
	start := s.m.Cycle()
	if start >= to {
		return false, nil
	}
	hit := false
	err := s.m.RunBreakable(1, func() bool {
		if pred(s.m) {
			hit = true
			return true
		}
		return s.m.Cycle() >= to
	})
	s.Replayed += s.m.Cycle() - start
	switch {
	case errors.Is(err, pipeline.ErrStopped):
		return hit, nil
	case errors.Is(err, pipeline.ErrCycleBudget) && s.m.Cycle() >= to:
		return hit, nil
	case err != nil:
		return false, fmt.Errorf("flightrec: replay diverged at cycle %d: %w", s.m.Cycle(), err)
	}
	return hit, nil
}

// State captures the cursor's full machine state (for dumps and diffs).
func (s *Session) State() (*pipeline.MachineState, error) {
	if s.m == nil {
		return nil, errors.New("flightrec: session is unpositioned (seek first)")
	}
	return s.m.Snapshot(), nil
}

// Close releases the live machine back to the workspace pool.
func (s *Session) Close() {
	if s.m != nil {
		s.m.Release()
		s.m = nil
	}
}
