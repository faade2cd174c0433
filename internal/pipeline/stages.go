package pipeline

import (
	"math/bits"

	"reuseiq/internal/core"
	"reuseiq/internal/fu"
	"reuseiq/internal/isa"
	"reuseiq/internal/lsq"
	"reuseiq/internal/prog"
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
			e := m.commitStore(h)
			c.StoreAddr, c.StoreI, c.StoreF = e.Addr, e.DataI, e.DataF
			m.scratch.unpark(m.LSQ.HeadSlot(), nil)
			m.LSQ.PopHead()
		}
		if h.IsLoad {
			c.LoadAddr = m.LSQ.Head().Addr
			m.LSQ.PopHead()
		}
		if h.HasDest {
			m.RF.Release(h.Dest.Kind, h.OldPhys)
		}
		d := m.Prog.At(h.PC)
		if d.Class == isa.ClassBranch {
			m.C.BranchesCommitted++
			if h.ActTaken {
				m.C.TakenCommitted++
			}
		}
		// Train the predictor with correct-path outcomes. Code Reuse
		// gates prediction lookups (paper §2.3) but commit-side updates
		// continue, keeping the tables warm for the loop exit.
		if d.Control {
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

// commitStore writes the ROB head h's store to architectural memory and the
// data cache, returning its LSQ entry, the queue's head, for the OnCommit
// record. The caller pops the entry.
func (m *Machine) commitStore(h *rob.Entry) *lsq.Entry {
	e := m.LSQ.Head()
	if !e.IsStore || !e.AddrReady {
		panic("pipeline: committing store with unresolved LSQ head")
	}
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
	// Complete this cycle's results oldest first: an older result must
	// write back, and possibly trigger a recovery, before younger ones.
	var n int
	m.execQ, n = m.scratch.collect(m.execQ, m.cycle)
	if n == 0 {
		return
	}
	var scan ageScan
	scan.start(m.scratch.done, nil, m.ROB.HeadSlot())
	for rs := scan.next(); rs >= 0; rs = scan.next() {
		if m.complete(&m.scratch.result[rs]) {
			// The recovery squashed every younger instruction, and
			// every slot left to visit is younger.
			return
		}
	}
}

// complete writes back one result and reports whether it was a mispredicted
// control instruction, which recovers.
func (m *Machine) complete(x *execEntry) bool {
	r := m.ROB.Get(x.robSlot)
	if r.Seq != x.seq {
		return false // squashed while in flight
	}
	if r.HasDest {
		if r.Dest.Kind == isa.KindFP {
			m.RF.WriteFP(r.NewPhys, x.valF)
		} else {
			m.RF.WriteInt(r.NewPhys, x.valI)
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
	if !m.Prog.At(r.PC).Control {
		return false
	}
	r.Mispred = r.ActTarget != predictedNextPC(r)
	if r.Mispred {
		m.recover(r)
	}
	return r.Mispred
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
	m.scratch.unparkAll()
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

	// Select ready entries oldest first: the queue keeps its candidates in
	// a bitset over ROB slots, and the ROB ring is in program order from
	// its head. The scan passes over parked loads; memFree tracks whether
	// the ones passed so far still owe their charge (chargeParked). Loads
	// that park during the pass are behind the scan already.
	var gate storeGate
	var scan ageScan
	scan.start(m.IQ.ReadyByROB(), m.scratch.parked, m.ROB.HeadSlot())
	memFree := m.scratch.nParked > 0 && m.FUs.Free(fu.MemPort, m.cycle) >= 0
	for issued := 0; issued < m.Cfg.IssueWidth; {
		rs := scan.next()
		if rs < 0 {
			if memFree {
				m.chargeParked(scan.passed)
			}
			return
		}
		if !m.tryIssueEntry(m.IQ.ReadySlotAt(rs), &gate, &scan) {
			continue
		}
		issued++
		if memFree && (issued == m.Cfg.IssueWidth || m.FUs.Free(fu.MemPort, m.cycle) < 0) {
			// The pass stops here, or no port is left for a parked load
			// younger than rs to search with.
			m.chargeParked(scan.passedBefore())
			memFree = false
		}
	}
}

// chargeParked charges n parked loads that a select pass passed over while
// a memory port was free, as the failed attempts they would have been: every
// older store address was known when a load parked, so it would pass the
// store gate, read its base register and search the LSQ again, to the same
// MustWait. A pass books ports and never frees one, so the parked loads owed
// a charge are those older than the issue that took the last free port, or
// than the one that ended the pass at issue width, or all of them when the
// candidates run out first.
func (m *Machine) chargeParked(n int) {
	m.RF.Reads += uint64(n)
	m.LSQ.Searches += uint64(n)
}

// ageScan visits the set bits of a bitset over ROB slots oldest first: from
// the head slot to the end of the ring, then from slot 0 up to the head. The
// head's word is visited twice, first from the head up and last for the
// slots below it. Bits also set in skip (nil for none) are passed over and
// counted instead.
type ageScan struct {
	ready, skip []uint64
	wi          int    // current word
	w           uint64 // current word's unvisited bits
	s           uint64 // current word's skipped bits
	below       uint64 // the head word's bits below the head
	left        int    // words still to load after the current one
	cur         int    // the slot last returned
	passed      int    // skipped bits in the words already left behind
}

// start begins a scan of ready from the ROB head, skipping skip. It sets
// the fields in place: copying a whole scan in or out costs more than the
// scan of a sparse cycle.
func (s *ageScan) start(ready, skip []uint64, head int) {
	s.ready, s.skip = ready, skip
	s.wi, s.below, s.left = head>>6, uint64(1)<<(head&63)-1, len(ready)
	s.s, s.passed = 0, 0
	s.load(^s.below)
}

// load reads the current word, restricted to mask.
func (s *ageScan) load(mask uint64) {
	s.w = s.ready[s.wi] & mask
	if s.skip != nil {
		s.s = s.w & s.skip[s.wi]
		s.w &^= s.s
	}
}

// next returns the next set slot not skipped, or -1 when every set bit has
// been visited; then passed counts every skipped bit.
func (s *ageScan) next() int {
	for s.w == 0 {
		s.passed += bits.OnesCount64(s.s)
		s.s = 0
		if s.left == 0 {
			return -1
		}
		s.left--
		if s.wi++; s.wi == len(s.ready) {
			s.wi = 0
		}
		mask := ^uint64(0)
		if s.left == 0 {
			mask = s.below
		}
		s.load(mask)
	}
	s.cur = s.wi<<6 | bits.TrailingZeros64(s.w)
	s.w &= s.w - 1
	return s.cur
}

// passedBefore returns the number of skipped bits older than the slot next
// last returned.
func (s *ageScan) passedBefore() int {
	return s.passed + bits.OnesCount64(s.s&(uint64(1)<<(s.cur&63)-1))
}

// add makes slot rs, whose skip bit was just cleared, a slot this scan
// visits. rs must be younger than the slot next last returned: in a later
// word, the scan reads the cleared bit when it loads that word; in the
// current word, it moves from the skipped bits to the unvisited ones.
func (s *ageScan) add(rs int) {
	if rs>>6 == s.wi && rs > s.cur {
		bit := uint64(1) << (rs & 63)
		s.w |= bit
		s.s &^= bit
	}
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
// select pass's store-address bound across candidates; scan is the pass,
// which visits the loads an issuing store unparks.
func (m *Machine) tryIssueEntry(slot int, gate *storeGate, scan *ageScan) bool {
	// Slots are stable, so the entry can be read in place (a value copy
	// would be forced onto the heap by the debug path taking its address).
	// MarkIssued frees a conventional entry's slot, so everything needed
	// after it is read into locals first.
	e := m.IQ.Entry(slot)
	d := m.Prog.At(e.PC)

	// Loads: conservative disambiguation before consuming a port.
	if d.Class == isa.ClassLoad {
		if !gate.known {
			gate.bound, gate.known = m.LSQ.OldestUnresolvedStore(), true
		}
		if gate.bound < e.Seq {
			m.LSQ.ConflictStalls++
			return false
		}
	}

	unit := m.FUs.Free(d.Timing.Kind, m.cycle)
	if unit < 0 {
		return false
	}

	var r isa.Result
	lat := d.Timing.Latency
	var valI int32
	var valF float64
	switch d.Class {
	case isa.ClassLoad:
		// A load needs only its effective address: read its one source,
		// the base register, and skip the full evaluation.
		addr := isa.EffAddr(e.Inst, m.RF.ReadInt(e.SrcPhys[0]))
		res, st := m.LSQ.SearchForLoad(e.LSQSlot, addr, d.MemSize)
		if res == lsq.MustWait {
			if st >= 0 {
				m.scratch.park(e.ROBSlot, st)
			}
			return false
		}
		le := m.LSQ.Get(e.LSQSlot)
		le.AddrReady = true
		le.Addr = addr
		le.Done = true
		if res == lsq.Forwarded {
			lat = 2 // address generation + bypass
			se := m.LSQ.Get(st)
			valI, valF = applyLoadSemantics(e.Inst.Op, se.DataI, se.DataF)
		} else {
			lat = 1 + m.Hier.AccessData(addr, false)
			valI, valF = m.loadFromMemory(e.Inst.Op, addr)
		}
	case isa.ClassStore:
		r = m.eval(e, d)
		le := m.LSQ.Get(e.LSQSlot)
		le.AddrReady = true
		le.Addr = r.Addr
		le.DataReady = true
		le.DataI = r.StoreI
		le.DataF = r.StoreF
		le.Done = true
		// A younger load later in this pass must see the resolved address,
		// and the loads parked on this store its data.
		if le.Seq == gate.bound {
			gate.known = false
		}
		m.scratch.unpark(e.LSQSlot, scan)
	default:
		r = m.eval(e, d)
		valI, valF = r.I, r.F
	}
	m.FUs.Book(&d.Timing, unit, m.cycle)
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
	if d.Control {
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
// evaluates the instruction. Its sources are rs then rt (d.Src), so a lone
// source is rt when the instruction reads no rs.
func (m *Machine) eval(e *core.Entry, d *prog.Predecoded) isa.Result {
	ops := isa.Operands{PC: e.PC}
	for s := 0; s < e.NumSrc; s++ {
		p := e.SrcPhys[s]
		switch rt := s == 1 || !d.ReadsRs; {
		case d.Src[s].Kind == isa.KindFP && rt:
			ops.FB = m.RF.ReadFP(p)
		case d.Src[s].Kind == isa.KindFP:
			ops.FA = m.RF.ReadFP(p)
		case rt:
			ops.B = m.RF.ReadInt(p)
		default:
			ops.A = m.RF.ReadInt(p)
		}
	}
	return isa.Eval(e.Inst, ops)
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
