package rob

import (
	"testing"

	"reuseiq/internal/isa"
)

func e(seq uint64) Entry { return Entry{Seq: seq} }

// push appends a copy of e, as the pipeline fills a slot from Alloc.
func push(r *ROB, e Entry) (int, bool) {
	slot, p := r.Alloc()
	if p == nil {
		return 0, false
	}
	*p = e
	return slot, true
}

func TestAllocCommitOrder(t *testing.T) {
	r := New(4)
	for i := 1; i <= 4; i++ {
		if _, ok := push(r, e(uint64(i))); !ok {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if !r.Full() {
		t.Fatal("not full")
	}
	if _, ok := push(r, e(5)); ok {
		t.Fatal("alloc into full ROB")
	}
	for i := 1; i <= 4; i++ {
		got := *r.Head()
		r.PopHead()
		if got.Seq != uint64(i) {
			t.Errorf("pop %d: seq %d", i, got.Seq)
		}
	}
	if !r.Empty() {
		t.Fatal("not empty")
	}
}

func TestSlotsStableAcrossCommit(t *testing.T) {
	r := New(4)
	s1, _ := push(r, e(1))
	s2, _ := push(r, e(2))
	r.PopHead()
	if r.Get(s2).Seq != 2 {
		t.Error("slot moved after commit")
	}
	// Wraparound reuses the committed slot.
	s3, _ := push(r, e(3))
	s4, _ := push(r, e(4))
	s5, _ := push(r, e(5))
	if s5 != s1 {
		t.Errorf("wraparound slot = %d, want %d", s5, s1)
	}
	_ = s3
	_ = s4
}

func TestSquashAfterYoungestFirst(t *testing.T) {
	r := New(8)
	for i := 1; i <= 6; i++ {
		push(r, e(uint64(i)))
	}
	removed := r.SquashAfter(3)
	if len(removed) != 3 {
		t.Fatalf("removed %d", len(removed))
	}
	for i, want := range []uint64{6, 5, 4} {
		if removed[i].Seq != want {
			t.Errorf("removed[%d] = %d, want %d", i, removed[i].Seq, want)
		}
	}
	if r.Len() != 3 {
		t.Errorf("len = %d", r.Len())
	}
	// Squashed slots are invalidated.
	removedAgain := r.SquashAfter(3)
	if len(removedAgain) != 0 {
		t.Error("second squash removed entries")
	}
}

func TestSquashInvalidatesSlotSeq(t *testing.T) {
	r := New(4)
	push(r, e(1))
	slot, _ := push(r, e(2))
	r.SquashAfter(1)
	if r.Get(slot).Seq == 2 {
		t.Error("squashed slot still matches its old sequence number")
	}
}

func TestSquashAfterAll(t *testing.T) {
	r := New(4)
	push(r, e(5))
	push(r, e(6))
	removed := r.SquashAfter(0)
	if len(removed) != 2 || !r.Empty() {
		t.Errorf("removed=%d empty=%v", len(removed), r.Empty())
	}
}

func TestWalkProgramOrder(t *testing.T) {
	r := New(4)
	push(r, e(1))
	push(r, e(2))
	r.PopHead()
	push(r, e(3))
	push(r, e(4)) // wraps
	var seqs []uint64
	r.Walk(func(slot int, en *Entry) { seqs = append(seqs, en.Seq) })
	want := []uint64{2, 3, 4}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("walk = %v", seqs)
		}
	}
}

func TestHeadNilWhenEmpty(t *testing.T) {
	r := New(2)
	if r.Head() != nil {
		t.Error("head of empty ROB")
	}
	defer func() {
		if recover() == nil {
			t.Error("pop of empty ROB did not panic")
		}
	}()
	r.PopHead()
}

func TestEntryFieldsPreserved(t *testing.T) {
	r := New(2)
	in := isa.Inst{Op: isa.OpBNE, Rs: 2, Imm: -4}
	slot, _ := push(r, Entry{Seq: 9, PC: 0x400010, Inst: in, PredTaken: true, PredTarget: 0x400000})
	got := r.Get(slot)
	if got.Inst.Op != isa.OpBNE || !got.PredTaken || got.PredTarget != 0x400000 {
		t.Errorf("entry = %+v", got)
	}
	if r.Allocs != 1 {
		t.Errorf("allocs = %d", r.Allocs)
	}
}

// A slot handed out again after its entry retired must come back zeroed:
// the pipeline fills only the fields an instance sets, so a stale Done or
// Mispred would leak into the new instance.
func TestAllocZeroesReusedSlot(t *testing.T) {
	r := New(1)
	_, old := r.Alloc()
	*old = Entry{Seq: 1, Done: true, Mispred: true, ActTaken: true, IssueCycle: 9}
	r.PopHead()
	_, e := r.Alloc()
	if *e != (Entry{}) {
		t.Errorf("reused slot = %+v, want zeroed", *e)
	}
}
