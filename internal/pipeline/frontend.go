package pipeline

import (
	"reuseiq/internal/core"
	"reuseiq/internal/isa"
	"reuseiq/internal/lsq"
	"reuseiq/internal/rob"
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
		if !m.dispatchResourcesOK(f.in) {
			return
		}
		// Pop by copying down so the latch's backing array never slides
		// (append would otherwise reallocate it every few cycles).
		n := copy(m.decodeLat, m.decodeLat[1:])
		m.decodeLat = m.decodeLat[:n]
		promoted := m.dispatchOne(f)
		m.C.FrontRenames++
		if m.nextSeq < m.telSeq {
			//reuse:allow-unguarded telSeq is nonzero only after AttachTelemetry caches Tel's cap
			m.Tel.InstDispatch(m.nextSeq, f.pc, false)
		}
		if promoted {
			// Code Reuse entered: gate the front end and flush
			// fetched-but-undispatched instructions; the reuse
			// pointer re-supplies them (paper §2.3).
			m.fetchQ = m.fetchQ[:0]
			m.decodeLat = m.decodeLat[:0]
			return
		}
	}
}

// dispatchResourcesOK checks structural resources for one instruction and
// records stall causes.
func (m *Machine) dispatchResourcesOK(in isa.Inst) bool {
	if m.ROB.Full() {
		m.C.DispatchStallROB++
		return false
	}
	if m.IQ.Free() == 0 {
		m.C.DispatchStallIQ++
		m.Ctl.OnIQFull()
		return false
	}
	if in.Op.IsMem() && m.LSQ.Full() {
		m.C.DispatchStallLSQ++
		return false
	}
	if d, ok := in.Dest(); ok && !m.RF.CanRename(d) {
		m.C.DispatchStallRegs++
		return false
	}
	return true
}

// dispatchOne renames and dispatches one front-end instruction. It returns
// whether the queue promoted to Code Reuse.
func (m *Machine) dispatchOne(f fetched) (promoted bool) {
	info := m.Ctl.OnDispatch(f.pc, f.in, f.predTaken, f.predTarget)

	seq := m.allocSeq()
	entry := core.Entry{
		Seq:          seq,
		PC:           f.pc,
		Inst:         f.in,
		LSQSlot:      -1,
		Classified:   info.Classify,
		StaticTaken:  f.predTaken,
		StaticTarget: f.predTarget,
	}
	oldPhys := m.renameInto(&entry)

	re := rob.Entry{
		Seq: seq, PC: f.pc, Inst: f.in,
		HasDest: entry.HasDest, PredTaken: f.predTaken, PredTarget: f.predTarget,
		IsLoad:  f.in.Op.Info().Class == isa.ClassLoad,
		IsStore: f.in.Op.Info().Class == isa.ClassStore,
		Halt:    f.in.Op == isa.OpHALT,
	}
	if entry.HasDest {
		d, _ := f.in.Dest()
		re.Dest = d
		re.NewPhys = entry.DestPhys
		re.OldPhys = oldPhys
	}
	slot, ok := m.ROB.Alloc(re)
	if !ok {
		panic("pipeline: ROB alloc after resource check")
	}
	entry.ROBSlot = slot

	if f.in.Op.IsMem() {
		ls, ok := m.LSQ.Alloc(lsq.Entry{
			Seq:     seq,
			IsStore: re.IsStore,
			IsFP:    f.in.Op == isa.OpLD || f.in.Op == isa.OpSD,
			Size:    memSize(f.in.Op),
		})
		if !ok {
			panic("pipeline: LSQ alloc after resource check")
		}
		entry.LSQSlot = ls
	}
	if _, ok := m.IQ.Dispatch(entry); !ok {
		panic("pipeline: IQ dispatch after resource check")
	}
	return info.Promote
}

// renameInto fills the entry's physical source and destination registers and
// returns the previous physical mapping of the destination (for rollback).
// It also snapshots per-source readiness, seeding the queue's wakeup index.
func (m *Machine) renameInto(e *core.Entry) (oldPhys int) {
	var srcs [2]isa.Reg
	e.NumSrc = e.Inst.SourceRegs(&srcs)
	for i := 0; i < e.NumSrc; i++ {
		s := srcs[i]
		e.SrcPhys[i] = m.RF.Lookup(s)
		e.SrcKind[i] = s.Kind
		e.SrcReady[i] = m.RF.Ready(s.Kind, e.SrcPhys[i])
	}
	if d, ok := e.Inst.Dest(); ok {
		var newP int
		newP, oldPhys = m.RF.Rename(d)
		e.HasDest = true
		e.DestPhys = newP
		e.DestKind = d.Kind
	}
	return oldPhys
}

// reuseDispatch re-renames up to DecodeWidth issued buffered entries,
// supplying instructions from the issue queue itself while the front end is
// gated.
//
//reuse:hotpath
func (m *Machine) reuseDispatch() {
	idxs := m.Ctl.ReusableEntries(m.Cfg.DecodeWidth)
	consumed := 0
	for _, pos := range idxs {
		e := m.IQ.Entry(pos)
		in := e.Inst
		// Unlike front-end dispatch, reuse updates the queue entry in
		// place, so no free issue-queue slot is needed.
		if m.ROB.Full() {
			m.C.DispatchStallROB++
			break
		}
		if in.Op.IsMem() && m.LSQ.Full() {
			m.C.DispatchStallLSQ++
			break
		}
		if d, ok := in.Dest(); ok && !m.RF.CanRename(d) {
			m.C.DispatchStallRegs++
			break
		}
		seq := m.allocSeq()

		// Re-rename from the logical register list.
		var srcs [2]isa.Reg
		nsrc := in.SourceRegs(&srcs)
		var srcPhys [2]int
		var srcReady [2]bool
		for i := 0; i < nsrc; i++ {
			srcPhys[i] = m.RF.Lookup(srcs[i])
			srcReady[i] = m.RF.Ready(srcs[i].Kind, srcPhys[i])
		}
		destPhys := -1
		var oldPhys int
		var dest isa.Reg
		hasDest := false
		if d, ok := in.Dest(); ok {
			destPhys, oldPhys = m.RF.Rename(d)
			dest = d
			hasDest = true
		}

		re := rob.Entry{
			Seq: seq, PC: e.PC, Inst: in,
			HasDest:    hasDest,
			PredTaken:  e.StaticTaken,
			PredTarget: e.StaticTarget,
			IsLoad:     in.Op.Info().Class == isa.ClassLoad,
			IsStore:    in.Op.Info().Class == isa.ClassStore,
			Halt:       in.Op == isa.OpHALT,
			Reused:     true,
		}
		if hasDest {
			re.Dest = dest
			re.NewPhys = destPhys
			re.OldPhys = oldPhys
		}
		slot, ok := m.ROB.Alloc(re)
		if !ok {
			panic("pipeline: ROB alloc after resource check (reuse)")
		}
		lsqSlot := -1
		if in.Op.IsMem() {
			ls, ok := m.LSQ.Alloc(lsq.Entry{
				Seq:     seq,
				IsStore: re.IsStore,
				IsFP:    in.Op == isa.OpLD || in.Op == isa.OpSD,
				Size:    memSize(in.Op),
			})
			if !ok {
				panic("pipeline: LSQ alloc after resource check (reuse)")
			}
			lsqSlot = ls
		}
		m.IQ.PartialUpdate(pos, seq, slot, lsqSlot, srcPhys, srcReady, destPhys)
		m.C.ReuseRenames++
		consumed++
		if seq < m.telSeq {
			//reuse:allow-unguarded telSeq is nonzero only after AttachTelemetry caches Tel's cap
			m.Tel.InstDispatch(seq, e.PC, true)
		}
	}
	m.Ctl.ConsumeReused(consumed)
	if m.Tel != nil && consumed > 0 {
		m.Tel.ReuseSupplied(consumed)
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
		f := fetched{pc: m.fetchPC, in: in}
		if in.Op.IsControl() {
			f.isControl = true
			p := m.BP.Predict(m.fetchPC, in)
			f.predTaken = p.Taken
			f.predTarget = p.Target
			// Fault injection: invert a conditional branch's predicted
			// direction. The target is static for conditional branches,
			// so the flip is recoverable like any misprediction.
			if in.Op.Info().Class == isa.ClassBranch && m.Chaos.FlipPrediction() {
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
		if in.Op == isa.OpHALT {
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
