package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"reuseiq/internal/isa"
)

// harness drives the controller + queue with a random but well-formed event
// stream (mirroring what the pipeline would send) and checks structural
// invariants after every event.
type harness struct {
	c   *Controller
	q   *Queue
	seq uint64
	t   *testing.T
}

func newHarness(t *testing.T, iq int) *harness {
	q := NewQueue(iq, 64)
	c := NewController(Config{Enabled: true, NBLTSize: 8}, q)
	return &harness{c: c, q: q, t: t}
}

func (h *harness) nextSeq() uint64 {
	h.seq++
	return h.seq
}

// dispatch simulates a front-end dispatch of one instruction.
func (h *harness) dispatch(pc uint32, in isa.Inst, taken bool, target uint32) {
	if h.c.GateActive() {
		return // the pipeline never front-dispatches while gated
	}
	if h.q.Free() == 0 {
		h.c.OnIQFull()
		return
	}
	info := h.c.OnDispatch(pc, in, taken, target)
	dispatch(h.q, Entry{
		Seq: h.nextSeq(), PC: pc, Inst: in,
		Classified: info.Classify, StaticTaken: taken, StaticTarget: target,
	})
	if info.Promote {
		// Nothing extra to do: entries are already in the queue.
		return
	}
}

// issueSome marks up to n ready-looking entries issued, picking random live
// slots like the select logic would pick ready ones.
func (h *harness) issueSome(rng *rand.Rand, n int) {
	for i := 0; i < n && h.q.Len() > 0; i++ {
		var slots []int
		h.q.Walk(func(slot int, e *Entry) { slots = append(slots, slot) })
		slot := slots[rng.Intn(len(slots))]
		if !h.q.Entry(slot).Issued {
			h.q.MarkIssued(slot)
		}
	}
}

// reuseSome consumes from the reuse pointer like reuseDispatch would.
func (h *harness) reuseSome(width int) {
	idxs := h.c.ReusableEntries(width)
	for _, pos := range idxs {
		partialUpdate(h.q, pos, h.nextSeq(), 0, -1, [2]int{}, [2]bool{}, -1)
	}
	h.c.ConsumeReused(len(idxs))
}

// invariants that must hold after every event.
func (h *harness) check() {
	// 1. Queue occupancy within capacity.
	if h.q.Len() > h.q.Size() || h.q.Len() < 0 {
		h.t.Fatalf("occupancy %d out of range", h.q.Len())
	}
	// 2. Classification bits exist only in Buffering or Reuse states.
	if h.c.State() == Normal && h.q.ClassifiedCount() != 0 {
		h.t.Fatalf("classified entries in Normal state")
	}
	// 3. In Reuse, at least one classified entry exists.
	if h.c.State() == Reuse && h.q.ClassifiedCount() == 0 {
		h.t.Fatalf("reuse state with empty buffer")
	}
	// 4. ReusableEntries only returns issued classified entries.
	for _, pos := range h.c.ReusableEntries(4) {
		e := h.q.Entry(pos)
		if !e.Classified || !e.Issued {
			h.t.Fatalf("supply returned non-reusable entry %+v", e)
		}
	}
}

// TestControllerInvariantsUnderRandomEvents drives random event schedules.
func TestControllerInvariantsUnderRandomEvents(t *testing.T) {
	const nbase = 0x0040_0000
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newHarness(t, 16+rng.Intn(48))
		loopLen := 2 + rng.Intn(10)
		tail := uint32(nbase + 4*loopLen)
		pc := uint32(nbase)
		for step := 0; step < 400; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // fetch-path dispatch walking the loop
				in := isa.Inst{Op: isa.OpADDI, Rt: 2, Rs: 2, Imm: 1}
				taken := false
				var tgt uint32
				if pc == tail {
					off := (int32(nbase) - int32(pc) - 4) / 4
					in = isa.Inst{Op: isa.OpBNE, Rs: 2, Imm: off}
					taken = rng.Intn(8) != 0
					tgt = nbase
				}
				h.dispatch(pc, in, taken, tgt)
				if pc == tail {
					pc = nbase
				} else {
					pc += 4
				}
			case 5, 6:
				h.issueSome(rng, 1+rng.Intn(4))
			case 7:
				h.reuseSome(4)
			case 8:
				h.c.OnRecovery()
				h.q.SquashAfter(h.seq - uint64(rng.Intn(5)))
			case 9:
				h.c.OnIQFull()
			}
			h.check()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the reuse pointer visits all buffered entries in order and wraps.
func TestReusePointerCoversAllEntries(t *testing.T) {
	h := newHarness(t, 32)
	tail := uint32(0x0040_0000 + 4*4) // 5-instruction loop
	// Detect + buffer until promoted.
	off := (int32(0x0040_0000) - int32(tail) - 4) / 4
	br := isa.Inst{Op: isa.OpBNE, Rs: 2, Imm: off}
	h.dispatch(tail, br, true, 0x0040_0000)
	for !h.c.GateActive() {
		for pc := uint32(0x0040_0000); pc <= tail && !h.c.GateActive(); pc += 4 {
			in := isa.Inst{Op: isa.OpADDI, Rt: 2, Rs: 2, Imm: 1}
			taken := pc == tail
			h.dispatch(pc, in, taken, 0x0040_0000)
		}
	}
	n := h.q.ClassifiedCount()
	// Issue everything so the whole buffer is reusable.
	h.q.Walk(func(slot int, e *Entry) {
		if e.Classified && !e.Issued {
			h.q.MarkIssued(slot)
		}
	})
	// Supply in groups of 4 until every entry has been re-renamed once;
	// the number of renames to come back to the start must be exactly n.
	seen := 0
	for seen < n {
		idxs := h.c.ReusableEntries(4)
		if len(idxs) == 0 {
			t.Fatal("supply stalled with all entries issued")
		}
		for _, pos := range idxs {
			partialUpdate(h.q, pos, h.nextSeq(), 0, -1, [2]int{}, [2]bool{}, -1)
			h.q.MarkIssued(pos) // pretend it issued again immediately
			seen++
		}
		h.c.ConsumeReused(len(idxs))
	}
	if got := h.c.S.ReuseRenames; got != uint64(n) {
		t.Errorf("renames = %d, want %d", got, n)
	}
}
