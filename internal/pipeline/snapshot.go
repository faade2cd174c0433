// Snapshot support: Machine.Snapshot exports the complete architectural and
// microarchitectural state of a machine between cycles, and Resume rebuilds
// a machine from such an image whose subsequent execution is bit-identical
// to the original never having stopped. The wire encoding lives in
// internal/snapshot; this file owns what "complete state" means and the
// validation that makes restoring an untrusted image safe.
//
// Not part of the image, by design:
//   - hooks (OnCommit, OnCycle, OnSample, Tel) — the restoring process
//     re-attaches its own observers;
//   - the per-cycle stage scratch (completions, select bitset) — dead
//     between cycles.
package pipeline

import (
	"errors"
	"fmt"

	"reuseiq/internal/altfe"
	"reuseiq/internal/bpred"
	"reuseiq/internal/chaos"
	"reuseiq/internal/core"
	"reuseiq/internal/fu"
	"reuseiq/internal/isa"
	"reuseiq/internal/lsq"
	"reuseiq/internal/mem"
	"reuseiq/internal/prog"
	"reuseiq/internal/rename"
	"reuseiq/internal/rob"
)

// FetchedState is the serializable image of one fetch-queue or decode-latch
// entry.
type FetchedState struct {
	PC         uint32
	Inst       isa.Inst
	IsControl  bool
	PredTaken  bool
	PredTarget uint32
}

// ExecState is the serializable image of one in-flight execution.
type ExecState struct {
	ROBSlot int
	Seq     uint64
	Done    uint64 // absolute completion cycle
	ValI    int32
	ValF    float64
}

// MachineState is the complete serializable image of a Machine, aggregating
// the component images. Snapshot/Resume round-trips through it; the
// internal/snapshot package encodes it to bytes.
type MachineState struct {
	Cycle           uint64
	NextSeq         uint64
	FetchPC         uint32
	FetchStallUntil uint64
	FetchHalted     bool
	Halted          bool
	LastCommit      uint64

	C Counters

	FetchQ    []FetchedState
	DecodeLat []FetchedState
	ExecQ     []ExecState

	Pages []prog.PageImage

	RF    rename.State
	ROB   rob.State
	LSQ   lsq.State
	IQ    core.QueueState
	Ctl   core.ControllerState
	Hier  mem.HierarchyState
	BP    bpred.State
	FUs   fu.State
	Chaos chaos.State

	HasLC bool
	LC    altfe.LoopCacheState
}

// Snapshot exports the machine's state. It must be taken between cycles
// (never from inside a Step hook other than OnCycle/OnSample, which run at
// cycle end); RunBreakable's break points and the experiment harness's
// checkpoint tap both satisfy this.
//
//reuse:export
//reuse:deterministic
func (m *Machine) Snapshot() *MachineState {
	st := &MachineState{
		Cycle:           m.cycle,
		NextSeq:         m.nextSeq,
		FetchPC:         m.fetchPC,
		FetchStallUntil: m.fetchStallUntil,
		FetchHalted:     m.fetchHalted,
		Halted:          m.halted,
		LastCommit:      m.lastCommit,
		C:               m.C,
		Pages:           m.Mem.ExportPages(),
		RF:              m.RF.ExportState(),
		ROB:             m.ROB.ExportState(),
		LSQ:             m.LSQ.ExportState(),
		IQ:              m.IQ.ExportState(),
		Ctl:             m.Ctl.ExportState(),
		Hier:            m.Hier.ExportState(),
		BP:              m.BP.ExportState(),
		FUs:             m.FUs.ExportState(),
		Chaos:           m.Chaos.ExportState(),
	}
	st.FetchQ = exportFetched(m.fetchQ)
	st.DecodeLat = exportFetched(m.decodeLat)
	st.ExecQ = make([]ExecState, len(m.execQ))
	for i, e := range m.execQ {
		st.ExecQ[i] = ExecState{ROBSlot: e.robSlot, Seq: e.seq, Done: e.done, ValI: e.valI, ValF: e.valF}
	}
	if m.LC != nil {
		st.HasLC = true
		st.LC = m.LC.ExportState()
	}
	return st
}

func exportFetched(in []fetched) []FetchedState {
	out := make([]FetchedState, len(in))
	for i, f := range in {
		out[i] = FetchedState{PC: f.pc, Inst: f.in, IsControl: f.isControl,
			PredTaken: f.predTaken, PredTarget: f.predTarget}
	}
	return out
}

// MaxExecQ bounds the in-flight execution list in a restored image. Live
// lists hold at most a few hundred entries (issue width times the longest
// latency, plus squashed stragglers); the cap exists so a corrupt image
// cannot demand a huge allocation. Exported so the snapshot decoder applies
// the same bound before allocating.
const MaxExecQ = 1 << 16

// Resume builds a machine from cfg and p and restores st into it. The
// configuration and program must be the ones the snapshot was taken under
// (the snapshot wire format fingerprints both); structural mismatches and
// internally inconsistent images are rejected with an error.
func Resume(cfg Config, p *prog.Program, st *MachineState) (*Machine, error) {
	m := New(cfg, p)
	if err := m.load(st); err != nil {
		return nil, fmt.Errorf("pipeline: resume: %w", err)
	}
	return m, nil
}

// load applies st to a freshly built machine.
//
//reuse:import
func (m *Machine) load(st *MachineState) error {
	cfg := &m.Cfg
	if len(st.FetchQ) > cfg.FetchQueueSize+cfg.FetchWidth {
		return fmt.Errorf("fetch queue holds %d entries, cap %d", len(st.FetchQ), cfg.FetchQueueSize+cfg.FetchWidth)
	}
	if len(st.DecodeLat) > cfg.DecodeWidth {
		return fmt.Errorf("decode latch holds %d entries, cap %d", len(st.DecodeLat), cfg.DecodeWidth)
	}
	if len(st.ExecQ) > MaxExecQ {
		return fmt.Errorf("execution list holds %d entries, cap %d", len(st.ExecQ), MaxExecQ)
	}
	for i, e := range st.ExecQ {
		if e.ROBSlot < 0 || e.ROBSlot >= cfg.ROBSize {
			return fmt.Errorf("execution list entry %d targets ROB slot %d of %d", i, e.ROBSlot, cfg.ROBSize)
		}
	}
	if err := m.Mem.ImportPages(st.Pages); err != nil {
		return err
	}
	if err := m.RF.ImportState(st.RF); err != nil {
		return err
	}
	if err := m.ROB.ImportState(st.ROB); err != nil {
		return err
	}
	if err := m.validateROBEntries(&st.ROB); err != nil {
		return err
	}
	if err := m.LSQ.ImportState(st.LSQ); err != nil {
		return err
	}
	if err := m.IQ.ImportState(st.IQ); err != nil {
		return err
	}
	if err := m.validateIQEntries(&st.IQ); err != nil {
		return err
	}
	if err := m.Ctl.ImportState(st.Ctl); err != nil {
		return err
	}
	if err := m.Hier.ImportState(st.Hier); err != nil {
		return err
	}
	if err := m.BP.ImportState(st.BP); err != nil {
		return err
	}
	if err := m.FUs.ImportState(st.FUs); err != nil {
		return err
	}
	// Bound the PRNG replay before running it: the injector draws at most a
	// few times per fetched/issued instruction and once per cycle, so a draw
	// count beyond this is a corrupt image, not a long run.
	maxDraws := (st.Cycle+1)*uint64(2+cfg.FetchWidth+2*cfg.IssueWidth) + 64
	if st.Chaos.Draws > maxDraws {
		return fmt.Errorf("chaos stream position %d exceeds bound %d for cycle %d",
			st.Chaos.Draws, maxDraws, st.Cycle)
	}
	if err := m.Chaos.ImportState(st.Chaos); err != nil {
		return err
	}
	if st.HasLC != (m.LC != nil) {
		return fmt.Errorf("loop cache presence %v, configuration has %v", st.HasLC, m.LC != nil)
	}
	if m.LC != nil {
		if err := m.LC.ImportState(st.LC); err != nil {
			return err
		}
	}

	m.cycle = st.Cycle
	m.nextSeq = st.NextSeq
	m.fetchPC = st.FetchPC
	m.fetchStallUntil = st.FetchStallUntil
	m.fetchHalted = st.FetchHalted
	m.halted = st.Halted
	m.lastCommit = st.LastCommit
	m.C = st.C
	m.fetchQ = importFetched(m.fetchQ, st.FetchQ)
	m.decodeLat = importFetched(m.decodeLat, st.DecodeLat)
	m.execQ = m.execQ[:0]
	for _, e := range st.ExecQ {
		m.execQ = append(m.execQ, execEntry{robSlot: e.ROBSlot, seq: e.Seq, done: e.Done, valI: e.ValI, valF: e.ValF})
	}
	return nil
}

func importFetched(dst []fetched, in []FetchedState) []fetched {
	dst = dst[:0]
	for _, f := range in {
		dst = append(dst, fetched{pc: f.PC, in: f.Inst, isControl: f.IsControl,
			predTaken: f.PredTaken, predTarget: f.PredTarget})
	}
	return dst
}

// validateROBEntries checks the register fields of in-flight ROB entries
// against the physical register file sizes (the ROB itself cannot: it does
// not know them).
func (m *Machine) validateROBEntries(st *rob.State) error {
	for i := range st.Ring {
		e := &st.Ring[i]
		if !st.Used[i] || !e.HasDest {
			continue
		}
		if e.Dest.Kind > isa.KindFP {
			return fmt.Errorf("ROB slot %d has invalid destination kind %d", i, e.Dest.Kind)
		}
		phys, arch := m.Cfg.IntPhysRegs, isa.NumIntRegs
		if e.Dest.Kind == isa.KindFP {
			phys, arch = m.Cfg.FPPhysRegs, isa.NumFPRegs
		}
		if int(e.Dest.Num) >= arch {
			return fmt.Errorf("ROB slot %d destination register %d of %d", i, e.Dest.Num, arch)
		}
		if e.NewPhys < 0 || e.NewPhys >= phys || e.OldPhys < 0 || e.OldPhys >= phys {
			return fmt.Errorf("ROB slot %d physical registers %d/%d of %d", i, e.NewPhys, e.OldPhys, phys)
		}
	}
	return nil
}

// validateIQEntries checks the physical register and queue-slot references
// of live issue queue entries against the machine's configuration.
func (m *Machine) validateIQEntries(st *core.QueueState) error {
	for i := range st.Slots {
		if !st.Meta[i].Valid {
			continue
		}
		e := &st.Slots[i]
		if e.ROBSlot < 0 || e.ROBSlot >= m.Cfg.ROBSize {
			return fmt.Errorf("IQ slot %d targets ROB slot %d of %d", i, e.ROBSlot, m.Cfg.ROBSize)
		}
		if e.LSQSlot < -1 || e.LSQSlot >= m.Cfg.LSQSize {
			return fmt.Errorf("IQ slot %d targets LSQ slot %d of %d", i, e.LSQSlot, m.Cfg.LSQSize)
		}
		for s := 0; s < e.NumSrc; s++ {
			phys := m.Cfg.IntPhysRegs
			if e.SrcKind[s] == isa.KindFP {
				phys = m.Cfg.FPPhysRegs
			}
			if e.SrcPhys[s] < 0 || e.SrcPhys[s] >= phys {
				return fmt.Errorf("IQ slot %d source %d reads p%d of %d", i, s, e.SrcPhys[s], phys)
			}
		}
		if e.HasDest {
			phys := m.Cfg.IntPhysRegs
			if e.DestKind == isa.KindFP {
				phys = m.Cfg.FPPhysRegs
			}
			if e.DestPhys < 0 || e.DestPhys >= phys {
				return fmt.Errorf("IQ slot %d writes p%d of %d", i, e.DestPhys, phys)
			}
		}
	}
	return nil
}

// Normalized returns the configuration with derived defaults filled in, the
// form New applies before building a machine. Snapshot fingerprints hash the
// normalized form so that (say) an explicit MaxCycles equal to the default
// and an unset one fingerprint identically.
func (c Config) Normalized() Config { return c.normalized() }

// ErrStopped is returned by RunBreakable when the break callback asked to
// stop. The machine is intact and between cycles: it can be snapshotted and
// later resumed, or RunBreakable can simply be called again.
var ErrStopped = errors.New("pipeline: run stopped at break point")

// ErrCycleBudget wraps the error returned when MaxCycles is exhausted, so a
// caller replaying a budget-truncated run (the flight recorder) can tell the
// expected end-of-recording from a genuine failure. The machine is between
// cycles and fully inspectable.
var ErrCycleBudget = errors.New("cycle budget exhausted")

// RunBreakable executes like Run, additionally calling brk every `every`
// cycles (default 4096 when zero); when brk returns true the run stops with
// ErrStopped, leaving the machine between cycles. Watchdog and cycle-budget
// behaviour are identical to Run.
func (m *Machine) RunBreakable(every uint64, brk func() bool) error {
	if every == 0 {
		every = 4096
	}
	left := every
	for !m.halted {
		m.Step()
		if m.hookErr != nil {
			return m.hookErr
		}
		if m.cycle >= m.Cfg.MaxCycles {
			return fmt.Errorf("pipeline: cycle budget %d exhausted (%d committed; %s): %w",
				m.Cfg.MaxCycles, m.C.Commits, m.stateSummary(), ErrCycleBudget)
		}
		if m.cycle-m.lastCommit > m.Cfg.WatchdogCycles {
			return fmt.Errorf("pipeline: no commit for %d cycles at cycle %d (%s)",
				m.Cfg.WatchdogCycles, m.cycle, m.stateSummary())
		}
		if brk != nil {
			if left--; left == 0 {
				left = every
				if brk() {
					return ErrStopped
				}
			}
		}
	}
	return m.hookErr
}
