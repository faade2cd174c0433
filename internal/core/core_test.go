package core

import (
	"testing"
	"testing/quick"

	"reuseiq/internal/isa"
)

func entry(seq uint64, classified, issued bool) Entry {
	return Entry{Seq: seq, Classified: classified, Issued: issued}
}

// dispatch appends a copy of e, the way the pipeline fills and indexes a
// slot from Dispatch.
func dispatch(q *Queue, e Entry) (int, bool) {
	slot, p := q.Dispatch(e.Classified)
	if p == nil {
		return -1, false
	}
	*p = e
	q.Index(slot, isStore(e))
	return slot, true
}

// partialUpdate rewires slot to a new instance with the given register
// information and ROB/LSQ pointers, the way reuse dispatch does.
func partialUpdate(q *Queue, slot int, seq uint64, robSlot, lsqSlot int, srcPhys [2]int, srcReady [2]bool, destPhys int) {
	e := q.PartialUpdate(slot)
	e.Seq, e.ROBSlot, e.LSQSlot = seq, robSlot, lsqSlot
	e.SrcPhys, e.SrcReady, e.DestPhys = srcPhys, srcReady, destPhys
	q.Index(slot, isStore(*e))
}

func isStore(e Entry) bool {
	return e.LSQSlot >= 0 && e.Inst.Op.Info().Class == isa.ClassStore
}

func TestQueueDispatchAndCapacity(t *testing.T) {
	q := NewQueue(4, 64)
	for i := 0; i < 4; i++ {
		if _, ok := dispatch(q, entry(uint64(i+1), false, false)); !ok {
			t.Fatalf("dispatch %d failed", i)
		}
	}
	if _, ok := dispatch(q, entry(9, false, false)); ok {
		t.Fatal("dispatch into full queue succeeded")
	}
	if q.Free() != 0 || q.Len() != 4 {
		t.Fatalf("free=%d len=%d", q.Free(), q.Len())
	}
}

func TestQueueIssueRemovesConventional(t *testing.T) {
	q := NewQueue(4, 64)
	s1, _ := dispatch(q, entry(1, false, false))
	s2, _ := dispatch(q, entry(2, false, false))
	if removed := q.MarkIssued(s1); !removed {
		t.Fatal("conventional entry not removed at issue")
	}
	if q.Len() != 1 || !q.Valid(s2) || q.Entry(s2).Seq != 2 {
		t.Fatalf("removal failed: len=%d", q.Len())
	}
	if q.Valid(s1) {
		t.Fatal("issued entry's slot still valid")
	}
	// The modeled collapsing queue shifted the one younger entry.
	if q.Collapses != 1 {
		t.Errorf("collapses = %d, want 1", q.Collapses)
	}
}

func TestQueueIssueKeepsClassified(t *testing.T) {
	q := NewQueue(4, 64)
	s, _ := dispatch(q, entry(1, true, false))
	if removed := q.MarkIssued(s); removed {
		t.Fatal("classified entry removed at issue")
	}
	if !q.Entry(s).Issued {
		t.Fatal("issue state bit not set")
	}
}

func TestQueueSquashAfter(t *testing.T) {
	q := NewQueue(8, 64)
	for i := 1; i <= 5; i++ {
		dispatch(q, entry(uint64(i), false, false))
	}
	q.SquashAfter(2)
	if q.Len() != 2 {
		t.Fatalf("len after squash = %d", q.Len())
	}
	q.Walk(func(i int, e *Entry) {
		if e.Seq > 2 {
			t.Errorf("entry seq %d survived squash", e.Seq)
		}
	})
}

func TestQueueRevoke(t *testing.T) {
	q := NewQueue(8, 64)
	dispatch(q, entry(1, false, false)) // conventional, stays
	dispatch(q, entry(2, true, true))   // classified+issued: removed
	dispatch(q, entry(3, true, false))  // classified live: declassified
	q.Revoke()
	if q.Len() != 2 {
		t.Fatalf("len after revoke = %d", q.Len())
	}
	var seqs []uint64
	q.Walk(func(i int, e *Entry) {
		if e.Classified {
			t.Errorf("seq %d still classified after revoke", e.Seq)
		}
		seqs = append(seqs, e.Seq)
	})
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 3 {
		t.Errorf("wrong survivors after revoke: %v", seqs)
	}
}

func TestQueuePartialUpdate(t *testing.T) {
	q := NewQueue(4, 64)
	e := entry(5, true, true)
	e.Inst = isa.Inst{Op: isa.OpADDI, Rt: 2, Rs: 2, Imm: 1}
	e.StaticTaken = true
	e.StaticTarget = 0x400100
	slot, _ := dispatch(q, e)
	partialUpdate(q, slot, 9, 3, -1, [2]int{7, 0}, [2]bool{}, 8)
	got := q.Entry(slot)
	if got.Seq != 9 || got.ROBSlot != 3 || got.DestPhys != 8 || got.Issued {
		t.Errorf("partial update result: %+v", got)
	}
	if !got.Classified || !got.StaticTaken || got.StaticTarget != 0x400100 {
		t.Error("partial update must preserve buffered information")
	}
	if q.PartialUpdates != 1 {
		t.Errorf("PartialUpdates = %d", q.PartialUpdates)
	}
}

func TestQueueClassifiedSlots(t *testing.T) {
	q := NewQueue(8, 64)
	dispatch(q, entry(1, false, false))
	s2, _ := dispatch(q, entry(2, true, false))
	dispatch(q, entry(3, false, false))
	s4, _ := dispatch(q, entry(4, true, false))
	idx := q.ClassifiedSlots()
	if len(idx) != 2 || int(idx[0]) != s2 || int(idx[1]) != s4 {
		t.Errorf("classified slots = %v, want [%d %d]", idx, s2, s4)
	}
	if q.ClassifiedCount() != 2 {
		t.Errorf("count = %d", q.ClassifiedCount())
	}
}

func TestNBLTBasics(t *testing.T) {
	n := NewNBLT(2)
	if n.Contains(0x100) {
		t.Fatal("empty table hit")
	}
	n.Insert(0x100)
	if !n.Contains(0x100) {
		t.Fatal("inserted address missing")
	}
	n.Insert(0x200)
	n.Insert(0x300) // evicts 0x100 (FIFO)
	if n.Contains(0x100) {
		t.Error("FIFO eviction failed")
	}
	if !n.Contains(0x200) || !n.Contains(0x300) {
		t.Error("recent entries missing")
	}
}

func TestNBLTDuplicateInsert(t *testing.T) {
	n := NewNBLT(2)
	n.Insert(0x100)
	n.Insert(0x100)
	n.Insert(0x200)
	// A duplicate insert must not consume a slot.
	if !n.Contains(0x100) || !n.Contains(0x200) {
		t.Error("duplicate insert consumed a slot")
	}
	if n.Inserts != 2 {
		t.Errorf("inserts = %d, want 2", n.Inserts)
	}
}

func TestNBLTZeroSized(t *testing.T) {
	n := NewNBLT(0)
	n.Insert(0x100) // must not panic
	if n.Contains(0x100) {
		t.Error("zero-sized table stored something")
	}
}

// NBLT property: after inserting k distinct addresses into a table of size s,
// the most recent min(k, s) are present.
func TestNBLTFIFOProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		n := NewNBLT(8)
		seen := map[uint32]bool{}
		var order []uint32
		for _, a := range addrs {
			a |= 4 // nonzero, aligned-ish
			if !seen[a] {
				seen[a] = true
				order = append(order, a)
			}
			n.Insert(a)
		}
		start := 0
		if len(order) > 8 {
			start = len(order) - 8
		}
		for _, a := range order[start:] {
			if !n.Contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- controller state machine tests -------------------------------------

// branchAt builds a conditional backward branch at pc targeting head.
func branchAt(pc, head uint32) isa.Inst {
	off := (int32(head) - int32(pc) - 4) / 4
	return isa.Inst{Op: isa.OpBNE, Rs: 2, Rt: 0, Imm: off}
}

const base = 0x0040_0000

// feedLoop dispatches n instructions of a loop body [head..tail] ending with
// the backward branch, telling the controller the branch is predicted taken.
func feedLoop(c *Controller, head, tail uint32) DispatchInfo {
	var last DispatchInfo
	for pc := head; pc <= tail; pc += 4 {
		in := isa.Inst{Op: isa.OpADDI, Rt: 2, Rs: 2, Imm: 1}
		taken := false
		var tgt uint32
		if pc == tail {
			in = branchAt(pc, head)
			taken = true
			tgt = head
		}
		last = c.OnDispatch(pc, in, taken, tgt)
		if last.Promote {
			return last
		}
	}
	return last
}

func newCtl(iqSize, nblt int) (*Controller, *Queue) {
	q := NewQueue(iqSize, 64)
	c := NewController(Config{Enabled: true, NBLTSize: nblt}, q)
	return c, q
}

func TestControllerDetectsLoop(t *testing.T) {
	c, _ := newCtl(32, 8)
	// First encounter of the backward branch (end of iteration 1).
	info := c.OnDispatch(base+4*7, branchAt(base+4*7, base), true, base)
	if info.Classify {
		t.Error("detecting branch itself must not be classified")
	}
	if c.State() != Buffering {
		t.Fatalf("state = %v, want buffering", c.State())
	}
	head, tail := c.LoopBounds()
	if head != base || tail != base+4*7 {
		t.Errorf("bounds = 0x%x..0x%x", head, tail)
	}
	if c.S.Detections != 1 || c.S.Bufferings != 1 {
		t.Errorf("stats: %+v", c.S)
	}
}

func TestControllerIgnoresOversizedLoop(t *testing.T) {
	c, _ := newCtl(8, 8)
	pc := uint32(base + 4*100) // distance 101 > 8
	c.OnDispatch(pc, branchAt(pc, base), true, base)
	if c.State() != Normal {
		t.Fatal("oversized loop entered buffering")
	}
	if c.S.Detections != 0 {
		t.Error("oversized loop counted as detection")
	}
}

func TestControllerIgnoresNotTakenBranch(t *testing.T) {
	c, _ := newCtl(32, 8)
	pc := uint32(base + 4*7)
	c.OnDispatch(pc, branchAt(pc, base), false, 0)
	if c.State() != Normal {
		t.Fatal("predicted-not-taken branch started buffering")
	}
}

func TestControllerDetectsBackwardJump(t *testing.T) {
	c, _ := newCtl(32, 8)
	pc := uint32(base + 4*5)
	c.OnDispatch(pc, isa.Inst{Op: isa.OpJ, Target: base}, true, base)
	if c.State() != Buffering {
		t.Fatal("backward jump not detected as loop")
	}
}

func TestControllerBuffersAndPromotes(t *testing.T) {
	c, q := newCtl(16, 8)
	head := uint32(base)
	tail := uint32(base + 4*4) // 5-instruction loop
	c.OnDispatch(tail, branchAt(tail, head), true, head)

	// Buffer iterations; the queue mirrors the dispatches.
	promoted := false
	for iter := 0; iter < 5 && !promoted; iter++ {
		for pc := head; pc <= tail; pc += 4 {
			in := isa.Inst{Op: isa.OpADDI, Rt: 2, Rs: 2, Imm: 1}
			taken := false
			var tgt uint32
			if pc == tail {
				in = branchAt(pc, head)
				taken = true
				tgt = head
			}
			info := c.OnDispatch(pc, in, taken, tgt)
			if !info.Classify {
				t.Fatalf("iter %d pc 0x%x not classified", iter, pc)
			}
			dispatch(q, Entry{Seq: uint64(q.Len() + 1), PC: pc, Inst: in,
				Classified: info.Classify, StaticTaken: taken, StaticTarget: tgt})
			if info.Promote {
				promoted = true
				break
			}
		}
	}
	if !promoted {
		t.Fatal("never promoted")
	}
	if c.State() != Reuse || !c.GateActive() {
		t.Fatalf("state = %v", c.State())
	}
	// 16-entry queue, 5-instruction body: at the 3rd boundary 15 entries
	// are used and the next iteration does not fit.
	if got := q.ClassifiedCount(); got != 15 {
		t.Errorf("buffered %d instructions, want 15", got)
	}
	if c.S.IterationsBuffered != 3 {
		t.Errorf("iterations = %d, want 3", c.S.IterationsBuffered)
	}
}

func TestControllerReusePointerWraps(t *testing.T) {
	c, q := newCtl(16, 8)
	head := uint32(base)
	tail := uint32(base + 4*4)
	c.OnDispatch(tail, branchAt(tail, head), true, head)
	seq := uint64(0)
	for c.State() == Buffering {
		for pc := head; pc <= tail; pc += 4 {
			in := isa.Inst{Op: isa.OpADDI, Rt: 2, Rs: 2, Imm: 1}
			taken := pc == tail
			info := c.OnDispatch(pc, in, taken, head)
			seq++
			dispatch(q, Entry{Seq: seq, PC: pc, Inst: in, Classified: info.Classify})
			if info.Promote {
				break
			}
		}
	}
	// Nothing issued yet: supply must be empty.
	if got := c.ReusableEntries(4); len(got) != 0 {
		t.Fatalf("unissued entries supplied: %v", got)
	}
	// Issue everything; supply up to width, in order, wrapping.
	q.Walk(func(slot int, e *Entry) {
		if e.Classified {
			q.MarkIssued(slot)
		}
	})
	first := append([]int(nil), c.ReusableEntries(4)...)
	if len(first) != 4 {
		t.Fatalf("supply = %v", first)
	}
	if first[0] != int(q.ClassifiedSlots()[0]) {
		t.Error("reuse pointer does not start at the first buffered entry")
	}
	c.ConsumeReused(4)
	// Consume all 15 and confirm wraparound to the start.
	c.ConsumeReused(11)
	again := c.ReusableEntries(1)
	if len(again) != 1 || again[0] != first[0] {
		t.Errorf("pointer did not wrap: %v vs %v", again, first)
	}
}

func TestControllerInnerLoopRevokes(t *testing.T) {
	c, q := newCtl(64, 8)
	outerHead := uint32(base)
	outerTail := uint32(base + 4*20)
	innerTail := uint32(base + 4*10)
	innerHead := uint32(base + 4*6)
	// Outer loop detected first.
	c.OnDispatch(outerTail, branchAt(outerTail, outerHead), true, outerHead)
	if c.State() != Buffering {
		t.Fatal("outer not buffering")
	}
	// While buffering, the inner loop's backward branch shows up.
	for pc := outerHead; pc < innerTail; pc += 4 {
		info := c.OnDispatch(pc, isa.Inst{Op: isa.OpADDI, Rt: 2, Rs: 2, Imm: 1}, false, 0)
		dispatch(q, Entry{Seq: uint64(pc), PC: pc, Classified: info.Classify})
	}
	c.OnDispatch(innerTail, branchAt(innerTail, innerHead), true, innerHead)
	if c.S.RevokesInner != 1 {
		t.Fatalf("inner-loop revoke missing: %+v", c.S)
	}
	// The outer loop is now registered non-bufferable; the inner loop
	// detection proceeds immediately.
	if !c.NBLT().Contains(outerTail) {
		t.Error("outer tail not in NBLT")
	}
	if c.State() != Buffering {
		t.Fatal("inner loop not re-detected after revoke")
	}
	if h, tl := c.LoopBounds(); h != innerHead || tl != innerTail {
		t.Errorf("bounds now 0x%x..0x%x, want inner loop", h, tl)
	}
	// A later outer-loop detection must be filtered by the NBLT.
	c.OnRecovery() // leave buffering
	c.OnDispatch(outerTail, branchAt(outerTail, outerHead), true, outerHead)
	if c.State() != Normal || c.S.NBLTFiltered != 1 {
		t.Errorf("NBLT did not filter: state=%v stats=%+v", c.State(), c.S)
	}
}

func TestControllerExitDuringBufferingRevokes(t *testing.T) {
	c, q := newCtl(32, 8)
	head := uint32(base)
	tail := uint32(base + 4*4)
	c.OnDispatch(tail, branchAt(tail, head), true, head)
	info := c.OnDispatch(head, isa.Inst{Op: isa.OpADDI, Rt: 2, Rs: 2, Imm: 1}, false, 0)
	dispatch(q, Entry{Seq: 1, Classified: info.Classify})
	// Execution leaves the loop (e.g. an early exit path).
	c.OnDispatch(tail+8, isa.Inst{Op: isa.OpADDI, Rt: 2, Rs: 2, Imm: 1}, false, 0)
	if c.State() != Normal || c.S.RevokesExit != 1 {
		t.Fatalf("exit revoke missing: state=%v %+v", c.State(), c.S)
	}
	if !c.NBLT().Contains(tail) {
		t.Error("exited loop not registered in NBLT")
	}
	if q.ClassifiedCount() != 0 {
		t.Error("classification bits survived revoke")
	}
}

func TestControllerCallDepthAllowsExcursion(t *testing.T) {
	c, _ := newCtl(64, 8)
	head := uint32(base)
	tail := uint32(base + 4*6)
	callee := uint32(base + 4*50) // outside the loop bounds
	c.OnDispatch(tail, branchAt(tail, head), true, head)
	// jal inside the loop.
	c.OnDispatch(head, isa.Inst{Op: isa.OpJAL, Target: callee}, true, callee)
	if c.State() != Buffering {
		t.Fatal("call revoked buffering")
	}
	// Callee instructions are outside [head, tail] but must be buffered.
	info := c.OnDispatch(callee, isa.Inst{Op: isa.OpADDI, Rt: 2, Rs: 2, Imm: 1}, false, 0)
	if !info.Classify || c.State() != Buffering {
		t.Fatal("callee instruction not buffered")
	}
	// Return re-enters the loop.
	c.OnDispatch(callee+4, isa.Inst{Op: isa.OpJR, Rs: isa.RegRA}, true, head+4)
	info = c.OnDispatch(head+4, isa.Inst{Op: isa.OpADDI, Rt: 2, Rs: 2, Imm: 1}, false, 0)
	if !info.Classify || c.State() != Buffering {
		t.Fatal("loop body after return not buffered")
	}
}

func TestControllerIQFullDuringBuffering(t *testing.T) {
	c, _ := newCtl(8, 8)
	tail := uint32(base + 4*6)
	c.OnDispatch(tail, branchAt(tail, base), true, base)
	c.OnIQFull()
	if c.State() != Normal || c.S.RevokesFull != 1 {
		t.Fatalf("full revoke missing: %v %+v", c.State(), c.S)
	}
	if !c.NBLT().Contains(tail) {
		t.Error("overflowing loop not in NBLT")
	}
	// Outside buffering, OnIQFull is a no-op.
	c.OnIQFull()
	if c.S.RevokesFull != 1 {
		t.Error("spurious revoke outside buffering")
	}
}

func TestControllerRecoveryDuringBuffering(t *testing.T) {
	c, _ := newCtl(32, 8)
	tail := uint32(base + 4*4)
	c.OnDispatch(tail, branchAt(tail, base), true, base)
	c.OnRecovery()
	if c.State() != Normal || c.S.RevokesRecovery != 1 {
		t.Fatalf("recovery revoke missing: %v %+v", c.State(), c.S)
	}
	// Mispredict revokes do not register in the NBLT (paper §2.5).
	if c.NBLT().Contains(tail) {
		t.Error("recovery revoke must not insert into NBLT")
	}
}

func TestControllerDisabled(t *testing.T) {
	q := NewQueue(16, 64)
	c := NewController(Config{Enabled: false}, q)
	tail := uint32(base + 4*4)
	info := c.OnDispatch(tail, branchAt(tail, base), true, base)
	if info.Classify || c.State() != Normal || c.S.Detections != 0 {
		t.Error("disabled controller reacted to a loop")
	}
}

func TestControllerSingleIterationStrategy(t *testing.T) {
	q := NewQueue(64, 64)
	c := NewController(Config{Enabled: true, NBLTSize: 8, Strategy: StrategySingle}, q)
	head := uint32(base)
	tail := uint32(base + 4*4)
	c.OnDispatch(tail, branchAt(tail, head), true, head)
	info := feedLoop(c, head, tail)
	if !info.Promote {
		t.Fatal("single-iteration strategy did not promote after one iteration")
	}
	if c.S.IterationsBuffered != 1 {
		t.Errorf("iterations buffered = %d", c.S.IterationsBuffered)
	}
}

// TestReadyByROBFollowsCandidates checks the select index: the candidates'
// ROB slots are set and map back to their queue slots as entries become
// ready, issue and leave; ImportState rebuilds the index from the image; and
// an image in which two candidates name one ROB slot, or one names a slot
// outside the ROB, is rejected.
func TestReadyByROBFollowsCandidates(t *testing.T) {
	const robSize = 100
	want := func(q *Queue, bySlot map[int]int) {
		t.Helper()
		set := 0
		for _, w := range q.ReadyByROB() {
			for ; w != 0; w &= w - 1 {
				set++
			}
		}
		if set != len(bySlot) || len(q.ReadySlots()) != len(bySlot) {
			t.Fatalf("index holds %d candidates, ready list %d, want %d", set, len(q.ReadySlots()), len(bySlot))
		}
		for rs, slot := range bySlot {
			if q.ReadyByROB()[rs>>6]&(1<<(rs&63)) == 0 || q.ReadySlotAt(rs) != slot {
				t.Fatalf("ROB slot %d: set=%v slot %d, want queue slot %d",
					rs, q.ReadyByROB()[rs>>6]&(1<<(rs&63)) != 0, q.ReadySlotAt(rs), slot)
			}
		}
	}
	q := NewQueue(8, robSize)
	add := func(seq uint64, rs int, ready bool) int {
		e := entry(seq, false, false)
		e.ROBSlot, e.NumSrc, e.SrcPhys[0], e.SrcReady[0] = rs, 1, 40+int(seq), ready
		slot, _ := dispatch(q, e)
		return slot
	}
	a := add(1, 97, true)
	b := add(2, 99, false)
	c := add(3, 3, true) // wrapped past the end of the ROB
	want(q, map[int]int{97: a, 3: c})
	q.Wake(isa.KindInt, 42)
	want(q, map[int]int{97: a, 99: b, 3: c})
	q.MarkIssued(a)
	want(q, map[int]int{99: b, 3: c})

	fresh := NewQueue(8, robSize)
	if err := fresh.ImportState(q.ExportState()); err != nil {
		t.Fatal(err)
	}
	want(fresh, map[int]int{99: b, 3: c})

	for _, rs := range []int{3, robSize, -1} {
		st := q.ExportState()
		st.Slots[b].ROBSlot = rs
		if err := NewQueue(8, robSize).ImportState(st); err == nil {
			t.Errorf("image with a candidate naming ROB slot %d accepted", rs)
		}
	}
}
