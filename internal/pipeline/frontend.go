package pipeline

import (
	"reuseiq/internal/core"
	"reuseiq/internal/isa"
	"reuseiq/internal/prog"
)

// -------------------------------------------------------------- dispatch --

// dispatch renames up to DecodeWidth instructions per cycle and inserts them
// into the issue queue, ROB and LSQ. During Code Reuse the instructions come
// from the issue queue's reuse pointer instead of the decode latch.
//
//reuse:hotpath
func (m *Machine) dispatch() {
	if m.Ctl.GateActive() {
		m.reuseDispatch()
		return
	}
	for i := 0; i < m.Cfg.DecodeWidth && len(m.decodeLat) > 0; i++ {
		f := m.decodeLat[0]
		d := m.Prog.At(f.pc)
		if m.stalled(d, true) {
			return
		}
		// Pop by copying down so the latch's backing array never slides
		// (append would otherwise reallocate it every few cycles).
		n := copy(m.decodeLat, m.decodeLat[1:])
		m.decodeLat = m.decodeLat[:n]
		info := m.Ctl.OnDispatch(f.pc, f.in, f.predTaken, f.predTarget)
		slot, e := m.IQ.Dispatch(info.Classify)
		e.PC, e.Inst = f.pc, f.in
		e.StaticTaken, e.StaticTarget = f.predTaken, f.predTarget
		m.rename(slot, e, d, false)
		m.C.FrontRenames++
		if info.Promote {
			// Code Reuse entered: gate the front end and flush
			// fetched-but-undispatched instructions; the reuse
			// pointer re-supplies them (paper §2.3).
			m.fetchQ = m.fetchQ[:0]
			m.decodeLat = m.decodeLat[:0]
			return
		}
	}
}

// reuseDispatch re-renames up to DecodeWidth issued buffered entries,
// supplying instructions from the issue queue itself while the front end is
// gated.
//
//reuse:hotpath
func (m *Machine) reuseDispatch() {
	consumed := 0
	for _, slot := range m.Ctl.ReusableEntries(m.Cfg.DecodeWidth) {
		d := m.Prog.At(m.IQ.Entry(slot).PC)
		// Unlike front-end dispatch, reuse updates the queue entry in
		// place, so no free issue-queue slot is needed.
		if m.stalled(d, false) {
			break
		}
		m.rename(slot, m.IQ.PartialUpdate(slot), d, true)
		m.C.ReuseRenames++
		consumed++
	}
	m.Ctl.ConsumeReused(consumed)
	if m.Tel != nil && consumed > 0 {
		m.Tel.ReuseSupplied(consumed)
	}
}

// stalled reports whether a structure lacks room to dispatch d: the ROB, the
// issue queue (front end only, since reuse rewrites its buffered entry), the
// LSQ for a memory operation, or a physical register for a destination. It
// charges the first shortage, in that order, to its stall counter.
func (m *Machine) stalled(d *prog.Predecoded, needIQ bool) bool {
	switch {
	case m.ROB.Full():
		m.C.DispatchStallROB++
	case needIQ && m.IQ.Free() == 0:
		m.C.DispatchStallIQ++
		m.Ctl.OnIQFull()
	case d.IsMem() && m.LSQ.Full():
		m.C.DispatchStallLSQ++
	case d.HasDest && !m.RF.CanRename(d.Dest):
		m.C.DispatchStallRegs++
	default:
		return false
	}
	return true
}

// rename renames one instruction from its predecoded record d into the issue
// queue entry e in slot and fills its ROB and LSQ entries in place. e is a
// new entry from front-end dispatch or a buffered one that reuse is
// rewiring (reused); either way its PC, instruction and static prediction
// are set. The caller has checked for room (stalled), so the allocators
// cannot fail. Sources are looked up before the destination is renamed, so
// an instruction that overwrites one of its sources reads the previous
// value.
func (m *Machine) rename(slot int, e *core.Entry, d *prog.Predecoded, reused bool) {
	seq := m.allocSeq()
	robSlot, re := m.ROB.Alloc()
	e.Seq, e.ROBSlot = seq, robSlot
	re.Seq, re.PC, re.Inst = seq, e.PC, e.Inst
	re.PredTaken, re.PredTarget = e.StaticTaken, e.StaticTarget
	re.IsLoad, re.IsStore = d.Class == isa.ClassLoad, d.Class == isa.ClassStore
	re.Halt, re.Reused = d.Halt, reused

	e.NumSrc = int(d.NumSrc)
	for i := 0; i < e.NumSrc; i++ {
		s := d.Src[i]
		e.SrcPhys[i] = m.RF.Lookup(s)
		e.SrcKind[i] = s.Kind
		e.SrcReady[i] = m.RF.Ready(s.Kind, e.SrcPhys[i])
	}
	if d.HasDest {
		re.HasDest, re.Dest = true, d.Dest
		re.NewPhys, re.OldPhys = m.RF.Rename(d.Dest)
		e.HasDest, e.DestKind, e.DestPhys = true, d.Dest.Kind, re.NewPhys
	}

	e.LSQSlot = -1
	if d.IsMem() {
		ls, le := m.LSQ.Alloc()
		le.Seq, le.IsStore, le.IsFP, le.Size = seq, re.IsStore, d.FP, d.MemSize
		e.LSQSlot = ls
	}
	m.IQ.Index(slot, re.IsStore)
	if seq < m.telSeq {
		//reuse:allow-unguarded telSeq is nonzero only after AttachTelemetry caches Tel's cap
		m.Tel.InstDispatch(seq, e.PC, reused)
	}
}

func (m *Machine) allocSeq() uint64 {
	m.nextSeq++
	return m.nextSeq
}

// ---------------------------------------------------------------- decode --

//reuse:hotpath
func (m *Machine) decode() {
	if m.Ctl.GateActive() {
		return
	}
	for len(m.decodeLat) < m.Cfg.DecodeWidth && len(m.fetchQ) > 0 {
		m.decodeLat = append(m.decodeLat, m.fetchQ[0])
		n := copy(m.fetchQ, m.fetchQ[1:])
		m.fetchQ = m.fetchQ[:n]
		m.C.Decodes++
	}
}

// ----------------------------------------------------------------- fetch --

//reuse:hotpath
func (m *Machine) fetch() {
	if m.Ctl.GateActive() || m.fetchHalted || m.cycle < m.fetchStallUntil {
		return
	}
	// Fault injection: a fetch stall storm (e.g. an instruction-fetch
	// backend hiccup). Purely a timing event.
	if n := m.Chaos.FetchStall(); n > 0 {
		m.fetchStallUntil = m.cycle + uint64(n)
		if m.Tel != nil {
			m.Tel.ChaosStall(n)
		}
		return
	}
	m.C.FetchCycles++
	for n := 0; n < m.Cfg.FetchWidth && len(m.fetchQ) < m.Cfg.FetchQueueSize; n++ {
		in, ok := m.Prog.InstAt(m.fetchPC)
		if !ok {
			// Wrong-path fetch ran outside the text segment; stall
			// until a recovery redirects the PC.
			m.fetchHalted = true
			return
		}
		if m.LC != nil && m.LC.Supplying(m.fetchPC) {
			// The prior-art loop cache delivers this instruction; the
			// instruction cache stays idle.
			m.C.LoopCacheSupplies++
		} else {
			lat := m.Hier.FetchInst(m.fetchPC)
			if lat > m.Cfg.Mem.L1I.HitLat {
				// Instruction cache miss: retry after the fill.
				m.fetchStallUntil = m.cycle + uint64(lat)
				return
			}
		}
		d := m.Prog.At(m.fetchPC)
		f := fetched{pc: m.fetchPC, in: in}
		if d.Control {
			f.isControl = true
			p := m.BP.Predict(m.fetchPC, in)
			f.predTaken = p.Taken
			f.predTarget = p.Target
			// Fault injection: invert a conditional branch's predicted
			// direction. The target is static for conditional branches,
			// so the flip is recoverable like any misprediction.
			if d.Class == isa.ClassBranch && m.Chaos.FlipPrediction() {
				f.predTaken = !f.predTaken
				if m.Tel != nil {
					m.Tel.ChaosFlip(m.fetchPC)
				}
			}
		}
		if m.LC != nil {
			m.LC.Observe(m.fetchPC, in, f.predTaken)
		}
		m.fetchQ = append(m.fetchQ, f)
		m.C.Fetches++
		if d.Halt {
			m.fetchHalted = true
			return
		}
		if f.predTaken {
			m.fetchPC = f.predTarget
			return // a taken control transfer ends the fetch group
		}
		m.fetchPC += 4
	}
}
