package pipeline

import (
	"cmp"
	"math/bits"
	"slices"

	"reuseiq/internal/core"
	"reuseiq/internal/isa"
	"reuseiq/internal/lsq"
	"reuseiq/internal/rob"
)

// ---------------------------------------------------------------- commit --

//reuse:hotpath
func (m *Machine) commit() {
	for i := 0; i < m.Cfg.CommitWidth && !m.ROB.Empty(); i++ {
		h := m.ROB.Head()
		if !h.Done {
			return
		}
		if h.Halt {
			m.halted = true
			m.lastCommit = m.cycle
			if m.OnCommit != nil {
				if err := m.OnCommit(Commit{
					Cycle: m.cycle, Seq: h.Seq, PC: h.PC, Inst: h.Inst,
					Reused: h.Reused, Halted: true,
				}); err != nil {
					m.hookErr = err
				}
			}
			return
		}
		var c Commit
		if m.OnCommit != nil {
			c = Commit{
				Cycle: m.cycle, Seq: h.Seq, PC: h.PC, Inst: h.Inst,
				Reused: h.Reused, IsLoad: h.IsLoad, IsStore: h.IsStore,
				Taken: h.ActTaken, Target: h.ActTarget,
			}
			if h.HasDest {
				c.HasDest = true
				c.Dest = h.Dest
				if h.Dest.Kind == isa.KindFP {
					c.DestF = m.RF.PeekFP(h.NewPhys)
				} else {
					c.DestI = m.RF.PeekInt(h.NewPhys)
				}
			}
		}
		if h.IsStore {
			e := m.commitStore()
			c.StoreAddr, c.StoreI, c.StoreF = e.Addr, e.DataI, e.DataF
		}
		if h.IsLoad {
			e := m.LSQ.PopHead()
			c.LoadAddr = e.Addr
		}
		if h.HasDest {
			m.RF.Release(h.Dest.Kind, h.OldPhys)
		}
		cls := h.Inst.Op.Info().Class
		if cls == isa.ClassBranch {
			m.C.BranchesCommitted++
			if h.ActTaken {
				m.C.TakenCommitted++
			}
		}
		// Train the predictor with correct-path outcomes. Code Reuse
		// gates prediction lookups (paper §2.3) but commit-side updates
		// continue, keeping the tables warm for the loop exit.
		if h.Inst.Op.IsControl() {
			m.BP.Update(h.PC, h.Inst, h.ActTaken, h.ActTarget)
		}
		switch {
		case h.IsLoad:
			m.C.LoadsCommitted++
		case h.IsStore:
			m.C.StoresCommitted++
		}
		if h.Reused {
			m.C.ReusedCommitted++
		}
		if m.Tel != nil {
			if h.Seq < m.telSeq {
				m.Tel.InstCommit(h.Seq, h.PC)
			}
			if h.IssueCycle > 0 {
				m.Tel.CommitLatency(m.cycle - h.IssueCycle)
			}
		}
		if m.OnCommit != nil {
			if err := m.OnCommit(c); err != nil {
				m.hookErr = err
				return
			}
		}
		m.ROB.PopHead()
		m.C.Commits++
		m.lastCommit = m.cycle
	}
}

// commitStore writes the ROB head's store to architectural memory and the
// data cache, returning the drained LSQ entry (address and data) for the
// OnCommit record.
func (m *Machine) commitStore() lsq.Entry {
	e := m.LSQ.PopHead()
	if !e.IsStore || !e.AddrReady {
		panic("pipeline: committing store with unresolved LSQ head")
	}
	h := m.ROB.Head()
	switch h.Inst.Op {
	case isa.OpSW:
		m.Mem.WriteI32(e.Addr, e.DataI)
	case isa.OpSB:
		m.Mem.Write8(e.Addr, byte(e.DataI))
	case isa.OpSH:
		m.Mem.Write16(e.Addr, uint16(e.DataI))
	case isa.OpSD:
		m.Mem.WriteF64(e.Addr, e.DataF)
	}
	m.Hier.AccessData(e.Addr, true)
	m.C.StoreCommitAccesses++
	return e
}

// ------------------------------------------------------------- writeback --

//reuse:hotpath
func (m *Machine) writeback() {
	// Collect completions for this cycle in program order; older results
	// must write back (and possibly trigger recovery) before younger ones.
	done := m.scratch.done[:0]
	kept := m.execQ[:0]
	for _, e := range m.execQ {
		if e.done <= m.cycle {
			done = append(done, e)
		} else {
			kept = append(kept, e)
		}
	}
	m.execQ = kept
	m.scratch.done = done
	slices.SortFunc(done, func(a, b execEntry) int { return cmp.Compare(a.seq, b.seq) })

	// barrier guards against completions squashed by a recovery triggered
	// earlier in this same batch (their execQ entries were already drained
	// into done, so the recovery-time filter cannot catch them).
	barrier := ^uint64(0)
	for _, e := range done {
		if e.seq > barrier {
			continue
		}
		r := m.ROB.Get(e.robSlot)
		if r.Seq != e.seq {
			continue // squashed while in flight
		}
		if r.HasDest {
			if r.Dest.Kind == isa.KindFP {
				m.RF.WriteFP(r.NewPhys, e.valF)
			} else {
				m.RF.WriteInt(r.NewPhys, e.valI)
			}
			// Result-tag broadcast wakes up issue queue consumers. The
			// counters charge the CAM compare across all live entries the
			// hardware would perform; Wake only touches true dependents.
			m.C.WakeupBroadcasts++
			m.C.WakeupOccupancySum += uint64(m.IQ.Len())
			m.IQ.Wake(r.Dest.Kind, r.NewPhys)
		}
		r.Done = true
		if r.Seq < m.telSeq {
			//reuse:allow-unguarded telSeq is nonzero only after AttachTelemetry caches Tel's cap
			m.Tel.InstComplete(r.Seq, r.PC)
		}
		if r.Inst.Op.IsControl() {
			r.Mispred = r.ActTarget != predictedNextPC(r)
			if r.Mispred {
				m.recover(r)
				barrier = r.Seq
			}
		}
	}
}

// predictedNextPC returns the next PC the front end followed after this
// control instruction.
func predictedNextPC(e *rob.Entry) uint32 {
	if e.PredTaken {
		return e.PredTarget
	}
	return e.PC + 4
}

// recover squashes everything younger than the mispredicted control
// instruction e, rolls back the rename map, redirects fetch, and informs the
// reuse controller (revoking a buffering or exiting Code Reuse).
func (m *Machine) recover(e *rob.Entry) {
	m.C.Mispredicts++
	if m.Tel != nil {
		m.Tel.Mispredict(e.PC, e.ActTarget, e.Seq)
	}

	// Order matters: the controller must clean up classification bits
	// (removing dead buffered entries) before the seq-based squash.
	m.Ctl.OnRecovery()

	removed := m.ROB.SquashAfter(e.Seq)
	for i := range removed {
		en := &removed[i]
		if en.HasDest {
			m.RF.Rollback(en.Dest, en.NewPhys, en.OldPhys)
		}
	}
	m.IQ.SquashAfter(e.Seq)
	m.LSQ.SquashAfter(e.Seq)
	kept := m.execQ[:0]
	for _, x := range m.execQ {
		if x.seq <= e.Seq {
			kept = append(kept, x)
		}
	}
	m.execQ = kept
	m.fetchQ = m.fetchQ[:0]
	m.decodeLat = m.decodeLat[:0]
	m.fetchPC = e.ActTarget
	m.fetchStallUntil = m.cycle + uint64(m.Cfg.MispredictPenalty)
	m.fetchHalted = false
	if m.LC != nil {
		m.LC.OnRedirect()
	}
}

// ----------------------------------------------------------------- issue --

// storeGate is one select pass's conservative-disambiguation bound: the seq
// of the oldest store whose address is unknown (lsq.NoUnresolvedStore when
// none). It lives on the issue stage's stack, is found on the first load
// candidate, and is found again after that store itself issues.
type storeGate struct {
	bound uint64
	known bool
}

//reuse:hotpath
func (m *Machine) issue() {
	// The modeled select logic examines every live entry each cycle; the
	// software walks only the queue's ready-candidate index.
	m.C.IssueCycleScans += uint64(m.IQ.Len())
	m.IQ.SelectScans += uint64(m.IQ.Len())

	m.resolveStoreAddresses()

	// Select ready entries oldest first. A ready entry is unissued, so it
	// names its own in-flight ROB slot, and the ROB ring is in program
	// order from its head: marking the candidates' ROB slots in a bitset
	// and scanning the bits from the head visits them by age, with no sort.
	ready, iqSlot := m.scratch.ready, m.scratch.iqSlot
	clear(ready)
	for _, slot := range m.IQ.ReadySlots() {
		rs := m.IQ.Entry(int(slot)).ROBSlot
		ready[rs>>6] |= 1 << (rs & 63)
		iqSlot[rs] = slot
	}

	var gate storeGate
	scan := newAgeScan(ready, m.ROB.HeadSlot())
	for issued := 0; issued < m.Cfg.IssueWidth; {
		rs := scan.next()
		if rs < 0 {
			return
		}
		if m.tryIssueEntry(int(iqSlot[rs]), &gate) {
			issued++
		}
	}
}

// ageScan visits the set bits of a bitset over ROB slots oldest first: from
// the head slot to the end of the ring, then from slot 0 up to the head. The
// head's word is visited twice, first from the head up and last for the
// slots below it.
type ageScan struct {
	ready []uint64
	wi    int    // current word
	w     uint64 // current word's unvisited bits
	below uint64 // the head word's bits below the head
	left  int    // words still to load after the current one
}

func newAgeScan(ready []uint64, head int) ageScan {
	wi, below := head>>6, uint64(1)<<(head&63)-1
	return ageScan{ready: ready, wi: wi, w: ready[wi] &^ below, below: below, left: len(ready)}
}

// next returns the next set slot, or -1 when every set bit has been visited.
func (s *ageScan) next() int {
	for s.w == 0 {
		if s.left == 0 {
			return -1
		}
		s.left--
		if s.wi++; s.wi == len(s.ready) {
			s.wi = 0
		}
		s.w = s.ready[s.wi]
		if s.left == 0 {
			s.w &= s.below
		}
	}
	rs := s.wi<<6 | bits.TrailingZeros64(s.w)
	s.w &= s.w - 1
	return rs
}

// resolveStoreAddresses performs store address generation separately from
// store data capture (as the R10000 and SimpleScalar do): a store whose base
// register is ready publishes its address to the LSQ even while its data
// operand is still being computed. Without this split, the conservative
// "loads wait for older store addresses" rule would serialize every load
// behind dependent stores and destroy memory-level parallelism.
//
//reuse:hotpath
func (m *Machine) resolveStoreAddresses() {
	resolved := 0
	for slot := m.IQ.FirstPendingStore(); slot >= 0 && resolved < m.Cfg.IssueWidth; {
		next := m.IQ.NextPendingStore(slot)
		e := m.IQ.Entry(slot)
		le := m.LSQ.Get(e.LSQSlot)
		switch {
		case le.AddrReady || le.Seq != e.Seq:
			m.IQ.StoreResolved(slot)
		case e.SrcReady[0]: // the base register is the first source (rs)
			le.Addr = isa.EffAddr(e.Inst, m.RF.ReadInt(e.SrcPhys[0]))
			le.AddrReady = true
			m.IQ.StoreResolved(slot)
			resolved++
		}
		slot = next
	}
}

// tryIssueEntry attempts to issue the queue entry in slot. It reports
// whether the instruction issued (conventional entries are then removed;
// classified entries stay with their issue state bit set). gate carries the
// select pass's store-address bound across candidates.
func (m *Machine) tryIssueEntry(slot int, gate *storeGate) bool {
	// Slots are stable, so the entry can be read in place (a value copy
	// would be forced onto the heap by the debug path taking its address).
	// MarkIssued frees a conventional entry's slot, so everything needed
	// after it is read into locals first.
	e := m.IQ.Entry(slot)
	op := e.Inst.Op
	cls := op.Info().Class

	// Loads: conservative disambiguation before consuming a port.
	if cls == isa.ClassLoad {
		if !gate.known {
			gate.bound, gate.known = m.LSQ.OldestUnresolvedStore(), true
		}
		if gate.bound < e.Seq {
			m.LSQ.ConflictStalls++
			return false
		}
	}

	if !m.FUs.Available(op, m.cycle) {
		return false
	}

	var r isa.Result
	var lat int
	var valI int32
	var valF float64
	switch cls {
	case isa.ClassLoad:
		// A load needs only its effective address: read its one source,
		// the base register, and skip the full evaluation.
		addr := isa.EffAddr(e.Inst, m.RF.ReadInt(e.SrcPhys[0]))
		res, dI, dF := m.LSQ.SearchForLoad(e.LSQSlot, addr, memSize(op))
		if res == lsq.MustWait {
			return false
		}
		if _, ok := m.FUs.TryIssue(op, m.cycle); !ok {
			return false
		}
		le := m.LSQ.Get(e.LSQSlot)
		le.AddrReady = true
		le.Addr = addr
		le.Done = true
		if res == lsq.Forwarded {
			lat = 2 // address generation + bypass
			valI, valF = applyLoadSemantics(op, dI, dF)
		} else {
			lat = 1 + m.Hier.AccessData(addr, false)
			valI, valF = m.loadFromMemory(op, addr)
		}
	case isa.ClassStore:
		r = m.eval(e)
		if _, ok := m.FUs.TryIssue(op, m.cycle); !ok {
			return false
		}
		le := m.LSQ.Get(e.LSQSlot)
		le.AddrReady = true
		le.Addr = r.Addr
		le.DataReady = true
		le.DataI = r.StoreI
		le.DataF = r.StoreF
		le.Done = true
		lat = 1
		// A younger load later in this pass must see the resolved address.
		if le.Seq == gate.bound {
			gate.known = false
		}
	default:
		r = m.eval(e)
		l, ok := m.FUs.TryIssue(op, m.cycle)
		if !ok {
			return false
		}
		lat = l
		valI, valF = r.I, r.F
	}
	// Fault injection: inflate the result latency, modeling a slow unit.
	if j := m.Chaos.Jitter(); j > 0 {
		lat += j
		if m.Tel != nil {
			m.Tel.ChaosJitter(j, e.Seq)
		}
	}

	// Record control resolution in the ROB for the writeback check.
	re := m.ROB.Get(e.ROBSlot)
	re.IssueCycle = m.cycle
	if op.IsControl() {
		re.ActTaken = r.Taken
		if r.Taken {
			re.ActTarget = r.Target
		} else {
			re.ActTarget = e.PC + 4
		}
	}

	if e.Seq < m.telSeq {
		//reuse:allow-unguarded telSeq is nonzero only after AttachTelemetry caches Tel's cap
		m.Tel.InstIssue(e.Seq, e.PC)
	}
	robSlot, seq := e.ROBSlot, e.Seq
	m.IQ.MarkIssued(slot)
	m.execQ = append(m.execQ, execEntry{
		robSlot: robSlot, seq: seq, done: m.cycle + uint64(lat),
		valI: valI, valF: valF,
	})
	return true
}

// eval reads the entry's operands from the physical register file and
// evaluates the instruction.
func (m *Machine) eval(e *core.Entry) isa.Result {
	ops := isa.Operands{PC: e.PC}
	info := e.Inst.Op.Info()
	srcIdx := 0
	if info.ReadsRs {
		if info.RsFP {
			ops.FA = m.RF.ReadFP(e.SrcPhys[srcIdx])
		} else {
			ops.A = m.RF.ReadInt(e.SrcPhys[srcIdx])
		}
		srcIdx++
	}
	if info.ReadsRt {
		if info.RtFP {
			ops.FB = m.RF.ReadFP(e.SrcPhys[srcIdx])
		} else {
			ops.B = m.RF.ReadInt(e.SrcPhys[srcIdx])
		}
	}
	return isa.Eval(e.Inst, ops)
}

func memSize(op isa.Op) uint8 {
	switch op {
	case isa.OpLB, isa.OpLBU, isa.OpSB:
		return 1
	case isa.OpLH, isa.OpLHU, isa.OpSH:
		return 2
	case isa.OpLD, isa.OpSD:
		return 8
	}
	return 4
}

// applyLoadSemantics narrows a forwarded store value the way the load would
// read it from memory (sign or zero extension for sub-word loads).
func applyLoadSemantics(op isa.Op, dI int32, dF float64) (int32, float64) {
	switch op {
	case isa.OpLB:
		return int32(int8(dI)), 0
	case isa.OpLBU:
		return int32(uint8(dI)), 0
	case isa.OpLH:
		return int32(int16(dI)), 0
	case isa.OpLHU:
		return int32(uint16(dI)), 0
	case isa.OpLD:
		return 0, dF
	}
	return dI, 0
}

func (m *Machine) loadFromMemory(op isa.Op, addr uint32) (int32, float64) {
	switch op {
	case isa.OpLW:
		return m.Mem.ReadI32(addr), 0
	case isa.OpLB:
		return int32(int8(m.Mem.Read8(addr))), 0
	case isa.OpLBU:
		return int32(m.Mem.Read8(addr)), 0
	case isa.OpLH:
		return int32(int16(m.Mem.Read16(addr))), 0
	case isa.OpLHU:
		return int32(m.Mem.Read16(addr)), 0
	case isa.OpLD:
		return 0, m.Mem.ReadF64(addr)
	}
	//reuse:allow-alloc not-a-load panic: unreachable for programs the decoder accepts
	panic("pipeline: not a load: " + op.String())
}
