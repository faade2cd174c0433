// Package lockstep is the simulator's first-class verification layer. It
// cross-checks the out-of-order pipeline against the in-order functional
// interpreter *as execution proceeds*, instead of only comparing end states:
//
//   - Oracle steps interp.Machine in sync with every pipeline commit and
//     compares PC, destination-register writes and store address/value per
//     instruction. A divergence is reported at the first mismatching commit
//     with its cycle, sequence number, disassembly and the reuse issue
//     queue (RIQ) state — which localizes a bug to the instruction that
//     introduced it, where end-state differential fuzzing can only say
//     "registers differ after 2M instructions".
//
//   - Checker validates per-cycle microarchitectural invariants: ROB
//     sequence monotonicity, rename-map/free-list disjointness, LSQ age
//     order, reuse-pointer unidirectionality (paper §2.3), the NBLT size
//     bound, and classification-bit consistency.
//
// Both attach to a pipeline.Machine through its OnCommit/OnCycle hooks and
// stop the run at the first violation.
package lockstep

import (
	"fmt"
	"math"

	"reuseiq/internal/core"
	"reuseiq/internal/interp"
	"reuseiq/internal/isa"
	"reuseiq/internal/lsq"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/prog"
	"reuseiq/internal/rob"
)

// Oracle steps the functional interpreter in lockstep with pipeline commits.
type Oracle struct {
	m *pipeline.Machine
	g *interp.Machine

	// Commits counts cross-checked instructions.
	Commits uint64
}

// Attach installs both the commit-time oracle and the per-cycle invariant
// checker on m, which must have been built for p and not yet run. It
// returns the oracle (the checker needs no further interaction).
func Attach(m *pipeline.Machine, p *prog.Program) *Oracle {
	o := AttachOracle(m, p)
	AttachChecker(m)
	return o
}

// AttachOracle installs only the commit-time oracle on m.
func AttachOracle(m *pipeline.Machine, p *prog.Program) *Oracle {
	o := &Oracle{m: m, g: interp.New(p)}
	m.OnCommit = o.onCommit
	return o
}

// AttachChecker installs only the per-cycle invariant checker on m.
func AttachChecker(m *pipeline.Machine) *Checker {
	k := &Checker{m: m}
	m.OnCycle = k.Check
	return k
}

// onCommit advances the golden model by one instruction and cross-checks
// the pipeline's commit record against its architectural effects.
func (o *Oracle) onCommit(c pipeline.Commit) error {
	ef, err := o.g.Step()
	if err != nil {
		return o.divergef(c, "golden model failed: %v", err)
	}
	o.Commits++
	if c.PC != ef.PC {
		return o.divergef(c, "committed PC 0x%08x, oracle expects 0x%08x (%s)",
			c.PC, ef.PC, ef.Inst.Disasm(ef.PC))
	}
	if c.Halted != ef.Halted {
		return o.divergef(c, "halted=%v, oracle halted=%v", c.Halted, ef.Halted)
	}
	if c.Halted {
		return nil
	}
	if c.HasDest != ef.HasDest || (c.HasDest && c.Dest != ef.Dest) {
		return o.divergef(c, "dest %v (has=%v), oracle %v (has=%v)",
			c.Dest, c.HasDest, ef.Dest, ef.HasDest)
	}
	if c.HasDest {
		if c.Dest.Kind == isa.KindInt && c.DestI != ef.DestI {
			return o.divergef(c, "wrote %v=%d, oracle %d", c.Dest, c.DestI, ef.DestI)
		}
		if c.Dest.Kind == isa.KindFP && math.Float64bits(c.DestF) != math.Float64bits(ef.DestF) {
			return o.divergef(c, "wrote %v=%v, oracle %v", c.Dest, c.DestF, ef.DestF)
		}
	}
	if c.IsStore != ef.IsStore {
		return o.divergef(c, "store=%v, oracle store=%v", c.IsStore, ef.IsStore)
	}
	if c.IsStore {
		if c.StoreAddr != ef.StoreAddr {
			return o.divergef(c, "store to 0x%08x, oracle 0x%08x", c.StoreAddr, ef.StoreAddr)
		}
		if c.StoreI != ef.StoreI || math.Float64bits(c.StoreF) != math.Float64bits(ef.StoreF) {
			return o.divergef(c, "stored (%d, %v), oracle (%d, %v)",
				c.StoreI, c.StoreF, ef.StoreI, ef.StoreF)
		}
	}
	if c.Inst.Op.IsControl() && c.Target != ef.NextPC {
		return o.divergef(c, "control to 0x%08x, oracle 0x%08x", c.Target, ef.NextPC)
	}
	return nil
}

// divergef formats a first-divergence report carrying everything needed to
// localize the bug: cycle, seq, disassembly, and the RIQ state machine's
// mode at the moment of the divergence.
func (o *Oracle) divergef(c pipeline.Commit, format string, args ...any) error {
	return fmt.Errorf("lockstep: first divergence at cycle %d seq %d (commit #%d) pc 0x%08x %s [riq=%v]: %s",
		c.Cycle, c.Seq, o.Commits, c.PC, c.Inst.Disasm(c.PC), o.m.Ctl.State(),
		fmt.Sprintf(format, args...))
}

// Checker validates per-cycle structural invariants of the machine.
type Checker struct {
	m *pipeline.Machine

	// Cycles counts checked cycles.
	Cycles uint64

	// Previous-cycle reuse-pointer observation, for the unidirectionality
	// check (valid when prevReuse).
	prevReuse   bool
	prevOrd     int
	prevN       int
	prevRenames uint64
}

// Check runs every invariant once; the pipeline calls it after each cycle.
func (k *Checker) Check() error {
	k.Cycles++
	m := k.m

	// ROB sequence monotonicity: program order must be strictly increasing
	// from head to tail.
	var prevSeq uint64
	var robErr error
	m.ROB.Walk(func(slot int, e *rob.Entry) {
		if robErr != nil {
			return
		}
		if e.Seq <= prevSeq {
			robErr = k.violatef(e.Seq, e.Inst.Disasm(e.PC),
				"ROB seq not monotonic: %d after %d (slot %d)", e.Seq, prevSeq, slot)
		}
		prevSeq = e.Seq
	})
	if robErr != nil {
		return robErr
	}

	// Rename-map/free-list disjointness (and free-list uniqueness).
	if err := m.RF.CheckInvariants(); err != nil {
		return k.violateHead("%v", err)
	}

	// LSQ age order: memory operations sit in program order.
	prevSeq = 0
	var lsqErr error
	m.LSQ.Walk(func(slot int, e *lsq.Entry) {
		if lsqErr != nil {
			return
		}
		if e.Seq <= prevSeq {
			lsqErr = k.violateHead("LSQ age order broken: seq %d after %d (slot %d)",
				e.Seq, prevSeq, slot)
		}
		prevSeq = e.Seq
	})
	if lsqErr != nil {
		return lsqErr
	}

	// NBLT size bound: the CAM can never hold more than its capacity.
	if t := m.Ctl.NBLT(); t.Len() > t.Size() {
		return k.violateHead("NBLT holds %d entries, capacity %d", t.Len(), t.Size())
	}

	// Classification-bit consistency: the issue state bit is meaningful
	// only for classified (buffered) entries — a conventional entry is
	// removed at issue, so one still present must be unissued — and a
	// controller in Normal state implies no classified entries remain.
	state := m.Ctl.State()
	var iqErr error
	classified := 0
	m.IQ.Walk(func(i int, e *core.Entry) {
		if iqErr != nil {
			return
		}
		if e.Classified {
			classified++
		}
		if !e.Classified && e.Issued {
			iqErr = k.violatef(e.Seq, e.Inst.Disasm(e.PC),
				"unclassified entry %d has its issue state bit set", i)
			return
		}
		// Select orders candidates by ROB slot, so an entry that can
		// still issue must name the live ROB entry of its own instance.
		if !e.Issued && !k.robHolds(e.ROBSlot, e.Seq) {
			iqErr = k.violatef(e.Seq, e.Inst.Disasm(e.PC),
				"unissued entry %d names ROB slot %d, which does not hold its live instance", i, e.ROBSlot)
		}
	})
	if iqErr != nil {
		return iqErr
	}
	if state == core.Normal && classified > 0 {
		return k.violateHead("controller is Normal but %d classified entries remain", classified)
	}

	// Reuse-pointer unidirectionality (paper §2.3): during Code Reuse the
	// pointer only advances, by exactly the number of re-renamed entries,
	// wrapping to the first buffered instruction after passing the last.
	// Cross-checking the ordinal against the controller's re-rename count
	// catches both backwards movement and phantom advances.
	if state == core.Reuse {
		ord := m.Ctl.ReuseOrd()
		n := classified
		renames := m.Ctl.S.ReuseRenames
		if n > 0 && (ord < 0 || ord >= n) {
			return k.violateHead("reuse pointer ordinal %d outside [0,%d)", ord, n)
		}
		if k.prevReuse && n == k.prevN && n > 0 {
			consumed := renames - k.prevRenames
			if consumed > uint64(m.Cfg.DecodeWidth) {
				return k.violateHead("reuse pointer consumed %d entries in one cycle (decode width %d)",
					consumed, m.Cfg.DecodeWidth)
			}
			want := (k.prevOrd + int(consumed)) % n
			if ord != want {
				return k.violateHead("reuse pointer moved %d -> %d with %d consumed (want %d): not unidirectional",
					k.prevOrd, ord, consumed, want)
			}
		}
		k.prevReuse, k.prevOrd, k.prevN, k.prevRenames = true, ord, n, renames
	} else {
		k.prevReuse = false
	}
	return nil
}

// robHolds reports whether ROB slot holds the in-flight entry with seq.
func (k *Checker) robHolds(slot int, seq uint64) bool {
	r := k.m.ROB
	if slot < 0 || slot >= r.Size() {
		return false
	}
	age := slot - r.HeadSlot()
	if age < 0 {
		age += r.Size()
	}
	return age < r.Len() && r.Get(slot).Seq == seq
}

// violatef formats an invariant-violation report for a specific instruction.
func (k *Checker) violatef(seq uint64, disasm, format string, args ...any) error {
	return fmt.Errorf("lockstep: invariant violated at cycle %d seq %d %s [riq=%v]: %s",
		k.m.Cycle(), seq, disasm, k.m.Ctl.State(), fmt.Sprintf(format, args...))
}

// violateHead formats an invariant-violation report anchored at the ROB head
// (the oldest in-flight instruction) when no better anchor exists.
func (k *Checker) violateHead(format string, args ...any) error {
	seq, disasm := uint64(0), "(empty ROB)"
	if h := k.m.ROB.Head(); h != nil {
		seq, disasm = h.Seq, h.Inst.Disasm(h.PC)
	}
	return k.violatef(seq, disasm, format, args...)
}
