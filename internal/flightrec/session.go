package flightrec

import (
	"bytes"
	"errors"
	"fmt"

	"reuseiq/internal/lockstep"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/snapshot"
)

// Session is a seekable cursor over an Archive. Seek(n) restores the newest
// checkpoint at or below n and silently replays forward — O(interval)
// deterministic work — leaving a live machine positioned exactly at cycle n.
// Replays run with the lockstep invariant checker attached (Verify, default
// on), so a corrupted image or a non-deterministic replay fails loudly
// instead of presenting fabricated state.
type Session struct {
	A *Archive
	// Verify attaches the per-cycle invariant checker to every replay
	// machine. On by default (NewSession); turn off only for timing
	// measurements.
	Verify bool

	m *pipeline.Machine
	// Replayed counts cycles stepped across all seeks (diagnostics).
	Replayed uint64
	// Restores counts checkpoint restores across all seeks (diagnostics).
	Restores uint64
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

// Bounds returns the seekable cycle range [from, to].
func (s *Session) Bounds() (from, to uint64) {
	return s.A.Ckpts[0].Cycle, s.A.End
}

// Seek positions the cursor at cycle n: restore the newest checkpoint at or
// below n, replay forward to n. Seeking to the current cycle is a no-op;
// seeking forward replays from the cursor when that is cheaper than a
// restore.
func (s *Session) Seek(n uint64) error {
	from, to := s.Bounds()
	if n < from {
		return fmt.Errorf("flightrec: cycle %d predates the checkpoint ring (oldest retained checkpoint is cycle %d)", n, from)
	}
	if n > to {
		return fmt.Errorf("flightrec: cycle %d is beyond the recording's end (cycle %d)", n, to)
	}
	ci := s.checkpointFor(n)
	// Forward micro-seek: if the cursor is already between the chosen
	// checkpoint and n, replaying from here reaches n strictly cheaper.
	if s.m != nil && s.m.Cycle() <= n && s.m.Cycle() >= s.A.Ckpts[ci].Cycle {
		return s.advance(n)
	}
	return s.SeekFrom(ci, n)
}

// checkpointFor returns the index of the newest checkpoint at or below n.
func (s *Session) checkpointFor(n uint64) int {
	ci := 0
	for i, ck := range s.A.Ckpts {
		if ck.Cycle <= n {
			ci = i
		}
	}
	return ci
}

// SeekFrom restores checkpoint index ci and replays to cycle n, even when a
// nearer checkpoint exists. Seek is the normal path; SeekFrom exists so
// tests can prove the destination state is independent of the starting
// checkpoint.
func (s *Session) SeekFrom(ci int, n uint64) error {
	if ci < 0 || ci >= len(s.A.Ckpts) {
		return fmt.Errorf("flightrec: checkpoint index %d out of range [0,%d)", ci, len(s.A.Ckpts))
	}
	ck := s.A.Ckpts[ci]
	if ck.Cycle > n {
		return fmt.Errorf("flightrec: checkpoint %d is at cycle %d, after target %d", ci, ck.Cycle, n)
	}
	// Resume copies every slice out of the state (pages included), so the
	// archive's checkpoint stays pristine for the next restore.
	m, err := pipeline.Resume(s.A.Cfg, s.A.Prog, ck.State)
	if err != nil {
		return fmt.Errorf("flightrec: restore checkpoint at cycle %d: %w", ck.Cycle, err)
	}
	if s.Verify {
		lockstep.AttachChecker(m)
	}
	if s.m != nil {
		s.m.Release()
	}
	s.m = m
	s.Restores++
	return s.advance(n)
}

// Step advances the cursor k cycles by plain replay (no restore).
func (s *Session) Step(k uint64) error {
	if s.m == nil {
		return errors.New("flightrec: session is unpositioned (seek first)")
	}
	return s.advance(s.m.Cycle() + k)
}

// RStep moves the cursor k cycles backward (restore + replay under the
// hood — reverse stepping is a seek).
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

// Image encodes the cursor's machine state as a snapshot image — the
// byte-identical currency the seek-determinism property is stated in.
func (s *Session) Image() ([]byte, error) {
	if s.m == nil {
		return nil, errors.New("flightrec: session is unpositioned (seek first)")
	}
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, s.m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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
