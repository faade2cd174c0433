package pipeline

import (
	"cmp"
	"fmt"
	"math"
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
		if m.LogCommits {
			m.commitLog = append(m.commitLog, h.PC)
		}
		if m.Rec != nil {
			m.Rec.OnCommit(h.Seq, m.cycle)
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
	done := m.done[:0]
	kept := m.execQ[:0]
	for _, e := range m.execQ {
		if e.done <= m.cycle {
			done = append(done, e)
		} else {
			kept = append(kept, e)
		}
	}
	m.execQ = kept
	m.done = done
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
		if m.Rec != nil {
			m.Rec.OnComplete(r.Seq, m.cycle)
		}
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
	m.tracef("cycle %d: mispredict seq=%d pc=0x%x -> 0x%x (state %v)",
		m.cycle, e.Seq, e.PC, e.ActTarget, m.Ctl.State())

	// Order matters: the controller must clean up classification bits
	// (removing dead buffered entries) before the seq-based squash.
	m.Ctl.OnRecovery()

	removed := m.ROB.SquashAfter(e.Seq)
	for i := range removed {
		en := &removed[i]
		if en.HasDest {
			m.RF.Rollback(en.Dest, en.NewPhys, en.OldPhys)
		}
		if m.Rec != nil {
			m.Rec.OnSquash(en.Seq)
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

// keySlotBits is how many low bits of a select key hold the issue-queue
// slot; the seq sits above them.
func keySlotBits(iqSize int) uint { return uint(bits.Len(uint(iqSize - 1))) }

// maxKeySeq is the largest seq a select key holds without losing bits.
func maxKeySeq(iqSize int) uint64 { return math.MaxUint64 >> keySlotBits(iqSize) }

//reuse:hotpath
func (m *Machine) issue() {
	// The modeled select logic examines every live entry each cycle; the
	// software walks only the queue's ready-candidate index.
	m.C.IssueCycleScans += uint64(m.IQ.Len())
	m.IQ.SelectScans += uint64(m.IQ.Len())

	m.resolveStoreAddresses()

	// Select ready entries oldest first. Each key packs the candidate's seq
	// above its slot, and seqs are unique among live entries, so sorting
	// the keys sorts by seq. Slots are stable, so no position compensation
	// is needed when an issued entry is removed.
	shift := keySlotBits(m.Cfg.IQSize)
	maxSeq := maxKeySeq(m.Cfg.IQSize)
	keys := m.keys[:0]
	for _, slot := range m.IQ.ReadySlots() {
		seq := m.IQ.Entry(int(slot)).Seq
		if seq > maxSeq {
			panic("pipeline: seq overflows the select key")
		}
		keys = append(keys, seq<<shift|uint64(slot))
	}
	m.keys = keys
	slices.Sort(keys)

	var gate storeGate
	mask := uint64(1)<<shift - 1
	issued := 0
	for _, k := range keys {
		if issued >= m.Cfg.IssueWidth {
			break
		}
		if m.tryIssueEntry(int(k&mask), &gate) {
			issued++
		}
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
	//reuse:allow-alloc non-escaping closure: ForEachPendingStore calls f inline and never retains it
	m.IQ.ForEachPendingStore(func(slot int) bool {
		if resolved >= m.Cfg.IssueWidth {
			return false
		}
		e := m.IQ.Entry(slot)
		le := m.LSQ.Get(e.LSQSlot)
		if le.AddrReady || le.Seq != e.Seq {
			m.IQ.StoreResolved(slot)
			return true
		}
		// The base register is the first source (rs).
		if !e.SrcReady[0] {
			return true
		}
		base := m.RF.ReadInt(e.SrcPhys[0])
		le.Addr = uint32(base + e.Inst.Imm)
		le.AddrReady = true
		m.IQ.StoreResolved(slot)
		resolved++
		return true
	})
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

	// Read operands from the physical register file.
	ops := isa.Operands{PC: e.PC}
	info := op.Info()
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
	r := isa.Eval(e.Inst, ops)

	var lat int
	var valI int32
	var valF float64
	switch cls {
	case isa.ClassLoad:
		res, dI, dF := m.LSQ.SearchForLoad(e.LSQSlot, r.Addr, memSize(op))
		if res == lsq.MustWait {
			return false
		}
		if _, ok := m.FUs.TryIssue(op, m.cycle); !ok {
			return false
		}
		le := m.LSQ.Get(e.LSQSlot)
		le.AddrReady = true
		le.Addr = r.Addr
		le.Done = true
		if res == lsq.Forwarded {
			lat = 2 // address generation + bypass
			valI, valF = applyLoadSemantics(op, dI, dF)
		} else {
			lat = 1 + m.Hier.AccessData(r.Addr, false)
			valI, valF = m.loadFromMemory(op, r.Addr)
		}
	case isa.ClassStore:
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

	if m.DebugIssue != nil {
		m.DebugIssue(e.Seq, e.PC, fmtIssue(e, ops, valI))
	}
	if m.Rec != nil {
		m.Rec.OnIssue(e.Seq, m.cycle)
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

//reuse:allow-alloc debug issue formatter; called only under the DebugIssue nil guard
func fmtIssue(e *core.Entry, ops isa.Operands, valI int32) string {
	return fmt.Sprintf("issue seq=%d pc=0x%x %-24s A=%d B=%d src=%v val=%d",
		e.Seq, e.PC, e.Inst.Disasm(e.PC), ops.A, ops.B, e.SrcPhys[:e.NumSrc], valI)
}
