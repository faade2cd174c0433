package lsq

import "testing"

func store(seq uint64, addr uint32, size uint8, data int32, resolved bool) Entry {
	return Entry{Seq: seq, IsStore: true, Size: size, Addr: addr,
		AddrReady: resolved, DataReady: resolved, DataI: data}
}

func load(seq uint64, size uint8) Entry {
	return Entry{Seq: seq, Size: size}
}

// push appends a copy of e, as the pipeline fills a slot from Alloc.
func push(q *LSQ, e Entry) (int, bool) {
	slot, p := q.Alloc()
	if p == nil {
		return 0, false
	}
	*p = e
	return slot, true
}

// pop removes and returns the head entry.
func pop(q *LSQ) Entry {
	e := *q.Head()
	q.PopHead()
	return e
}

func TestAllocPopOrder(t *testing.T) {
	q := New(4)
	push(q, load(1, 4))
	push(q, store(2, 0x100, 4, 7, true))
	if q.Len() != 2 || q.Full() {
		t.Fatalf("len=%d", q.Len())
	}
	if pop(q).Seq != 1 || pop(q).Seq != 2 {
		t.Fatal("pop order wrong")
	}
}

func TestOldestUnresolvedStore(t *testing.T) {
	q := New(8)
	push(q, store(1, 0x100, 4, 7, true))
	push(q, store(2, 0, 4, 0, false)) // unresolved
	push(q, load(3, 4))
	if b := q.OldestUnresolvedStore(); b >= 3 {
		t.Fatalf("bound = %d: unresolved older store not detected", b)
	}
	q.Get(1).AddrReady = true
	if b := q.OldestUnresolvedStore(); b < 3 {
		t.Fatalf("bound = %d: resolved stores still block", b)
	}
	// A younger store must not block an older load.
	push(q, store(5, 0, 4, 0, false))
	if b := q.OldestUnresolvedStore(); b < 3 {
		t.Fatalf("bound = %d: younger store blocked older load", b)
	}
	q.Get(3).AddrReady = true
	if b := q.OldestUnresolvedStore(); b != NoUnresolvedStore {
		t.Fatalf("bound = %d with every store resolved", b)
	}
}

// alloc appends e and returns its slot, failing the test on a full queue.
func alloc(t *testing.T, q *LSQ, e Entry) int {
	t.Helper()
	slot, ok := push(q, e)
	if !ok {
		t.Fatalf("alloc of seq %d into a full queue", e.Seq)
	}
	return slot
}

func TestForwardExactMatch(t *testing.T) {
	q := New(8)
	push(q, store(1, 0x100, 4, 42, true))
	ld := alloc(t, q, load(2, 4))
	res, st := q.SearchForLoad(ld, 0x100, 4)
	if res != Forwarded || st != 0 || q.Get(st).DataI != 42 {
		t.Fatalf("res=%v from store slot %d", res, st)
	}
	if q.Forwards != 1 {
		t.Errorf("forwards = %d", q.Forwards)
	}
}

func TestForwardYoungestOlderWins(t *testing.T) {
	q := New(8)
	push(q, store(1, 0x100, 4, 1, true))
	push(q, store(2, 0x100, 4, 2, true))
	ld := alloc(t, q, load(3, 4))
	res, st := q.SearchForLoad(ld, 0x100, 4)
	if res != Forwarded || st != 1 || q.Get(st).DataI != 2 {
		t.Fatalf("got %v from store slot %d, want the younger store's value 2", res, st)
	}
}

func TestForwardIgnoresYoungerStores(t *testing.T) {
	q := New(8)
	ld := alloc(t, q, load(1, 4))
	push(q, store(2, 0x100, 4, 9, true))
	res, st := q.SearchForLoad(ld, 0x100, 4)
	if res != FromMemory || st != -1 {
		t.Fatalf("res = %v store %d, want FromMemory", res, st)
	}
}

func TestForwardNoOverlapGoesToMemory(t *testing.T) {
	q := New(8)
	push(q, store(1, 0x100, 4, 9, true))
	ld := alloc(t, q, load(2, 4))
	res, st := q.SearchForLoad(ld, 0x104, 4)
	if res != FromMemory || st != -1 {
		t.Fatalf("res = %v store %d", res, st)
	}
}

func TestPartialOverlapMustWait(t *testing.T) {
	q := New(8)
	push(q, store(1, 0x100, 1, 0xff, true)) // byte store
	ld := alloc(t, q, load(2, 4))
	res, st := q.SearchForLoad(ld, 0x100, 4) // word load overlapping the byte
	if res != MustWait || st != 0 {
		t.Fatalf("res = %v store %d, want MustWait on the byte store's size mismatch", res, st)
	}
	// Byte load at a different offset within the same word: no overlap.
	res, _ = q.SearchForLoad(ld, 0x101, 1)
	if res != FromMemory {
		t.Fatalf("res = %v, want FromMemory for disjoint byte", res)
	}
}

func TestUnresolvedOlderStoreMustWait(t *testing.T) {
	q := New(8)
	push(q, store(1, 0, 4, 0, false))
	ld := alloc(t, q, load(2, 4))
	res, st := q.SearchForLoad(ld, 0x100, 4)
	if res != MustWait || st != -1 {
		t.Fatalf("res = %v store %d, want MustWait naming no store", res, st)
	}
}

func TestFPForwarding(t *testing.T) {
	q := New(8)
	s := Entry{Seq: 1, IsStore: true, IsFP: true, Size: 8, Addr: 0x200,
		AddrReady: true, DataReady: true, DataF: 2.5}
	push(q, s)
	ld := alloc(t, q, Entry{Seq: 2, Size: 8, IsFP: true})
	res, st := q.SearchForLoad(ld, 0x200, 8)
	if res != Forwarded || q.Get(st).DataF != 2.5 {
		t.Fatalf("res=%v from store slot %d", res, st)
	}
}

func TestSquashAfter(t *testing.T) {
	q := New(8)
	for i := 1; i <= 5; i++ {
		push(q, load(uint64(i), 4))
	}
	q.SquashAfter(2)
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	q.Walk(func(slot int, e *Entry) {
		if e.Seq > 2 {
			t.Errorf("seq %d survived", e.Seq)
		}
	})
}

func TestRingWraparound(t *testing.T) {
	q := New(3)
	push(q, load(1, 4))
	push(q, load(2, 4))
	q.PopHead()
	push(q, load(3, 4))
	push(q, load(4, 4)) // wraps into slot 0
	if q.Len() != 3 || !q.Full() {
		t.Fatalf("len=%d", q.Len())
	}
	if q.Head().Seq != 2 {
		t.Errorf("head seq = %d", q.Head().Seq)
	}
}

func TestOverlapHelper(t *testing.T) {
	cases := []struct {
		a1, s1, a2, s2 uint32
		want           bool
	}{
		{0x100, 4, 0x100, 4, true},
		{0x100, 4, 0x104, 4, false},
		{0x100, 4, 0x103, 1, true},
		{0x100, 1, 0x100, 4, true},
		{0x100, 8, 0x104, 4, true},
		{0x104, 4, 0x100, 8, true},
		{0x100, 1, 0x101, 1, false},
	}
	for _, c := range cases {
		if got := overlaps(c.a1, c.s1, c.a2, c.s2); got != c.want {
			t.Errorf("overlaps(0x%x,%d, 0x%x,%d) = %v", c.a1, c.s1, c.a2, c.s2, got)
		}
	}
}

// A slot handed out again after its entry left must come back zeroed: the
// pipeline fills only a new operation's static fields, so a stale AddrReady
// or Done would leak into it.
func TestAllocZeroesReusedSlot(t *testing.T) {
	q := New(1)
	push(q, store(1, 0x100, 4, 7, true))
	q.PopHead()
	_, e := q.Alloc()
	if *e != (Entry{}) {
		t.Errorf("reused slot = %+v, want zeroed", *e)
	}
}
