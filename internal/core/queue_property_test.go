package core

import (
	"math/rand"
	"testing"

	"reuseiq/internal/isa"
)

// This file checks the slot-based Queue against a reference copy of the
// original collapse-on-remove implementation, op for op: after every random
// operation the two must agree on occupancy, program-order contents, the
// classified set, the select-candidate set, the pending-store order and —
// critically for the power model — every activity counter.

// refEntry wraps Entry with the reference model's view of the pending-store
// list (the real Queue tracks resolution in slotMeta).
type refEntry struct {
	Entry
	storeResolved bool
}

// refQueue is the original collapsing implementation: entries in a slice in
// program order, removal shifts the tail down.
type refQueue struct {
	entries []refEntry
	size    int

	Dispatches     uint64
	PartialUpdates uint64
	IssueReads     uint64
	Removals       uint64
	Collapses      uint64
}

func newRefQueue(size int) *refQueue {
	return &refQueue{entries: make([]refEntry, 0, size), size: size}
}

func (q *refQueue) Len() int  { return len(q.entries) }
func (q *refQueue) Free() int { return q.size - len(q.entries) }

func (q *refQueue) Dispatch(e Entry) bool {
	if q.Free() == 0 {
		return false
	}
	q.entries = append(q.entries, refEntry{Entry: e})
	q.Dispatches++
	return true
}

func (q *refQueue) MarkIssued(i int) bool {
	q.IssueReads++
	if q.entries[i].Classified {
		q.entries[i].Issued = true
		return false
	}
	q.Removals++
	q.Collapses += uint64(len(q.entries) - i - 1)
	q.entries = append(q.entries[:i], q.entries[i+1:]...)
	return true
}

func (q *refQueue) SquashAfter(seq uint64) {
	kept := q.entries[:0]
	for _, e := range q.entries {
		if e.Seq <= seq {
			kept = append(kept, e)
		}
	}
	q.entries = kept
}

func (q *refQueue) Revoke() {
	kept := q.entries[:0]
	for _, e := range q.entries {
		if e.Classified && e.Issued {
			q.Removals++
			continue
		}
		e.Classified = false
		kept = append(kept, e)
	}
	q.entries = kept
}

func (q *refQueue) PartialUpdate(i int, seq uint64, robSlot, lsqSlot int, srcPhys [2]int, srcReady [2]bool, destPhys int) {
	e := &q.entries[i]
	e.Seq = seq
	e.ROBSlot = robSlot
	e.LSQSlot = lsqSlot
	e.SrcPhys = srcPhys
	e.SrcReady = srcReady
	e.DestPhys = destPhys
	e.Issued = false
	e.storeResolved = false
	q.PartialUpdates++
}

func (q *refQueue) Wake(kind isa.RegKind, phys int) {
	for i := range q.entries {
		e := &q.entries[i]
		for s := 0; s < e.NumSrc; s++ {
			if e.SrcKind[s] == kind && e.SrcPhys[s] == phys {
				e.SrcReady[s] = true
			}
		}
	}
}

func (e *refEntry) isPendingStore() bool {
	return e.LSQSlot >= 0 && !e.Issued && !e.storeResolved &&
		e.Inst.Op.Info().Class == isa.ClassStore
}

// lockstep pairs the two implementations and cross-checks them after every
// operation. Positions index the reference slice; the equivalent slot in the
// real queue is found by walking program order.
type lockstep struct {
	t   *testing.T
	q   *Queue
	ref *refQueue
	seq uint64
}

func (l *lockstep) slotAt(pos int) int {
	i, found := 0, -1
	l.q.Walk(func(slot int, e *Entry) {
		if i == pos {
			found = slot
		}
		i++
	})
	if found < 0 {
		l.t.Fatalf("no slot at position %d (len %d)", pos, l.q.Len())
	}
	return found
}

func (l *lockstep) check() {
	t, q, ref := l.t, l.q, l.ref
	t.Helper()
	if q.Len() != ref.Len() || q.Free() != ref.Free() {
		t.Fatalf("occupancy: got len=%d free=%d, ref len=%d free=%d",
			q.Len(), q.Free(), ref.Len(), ref.Free())
	}
	if q.Dispatches != ref.Dispatches || q.PartialUpdates != ref.PartialUpdates ||
		q.IssueReads != ref.IssueReads || q.Removals != ref.Removals ||
		q.Collapses != ref.Collapses {
		t.Fatalf("counters diverged:\n got  D=%d P=%d I=%d R=%d C=%d\n ref  D=%d P=%d I=%d R=%d C=%d",
			q.Dispatches, q.PartialUpdates, q.IssueReads, q.Removals, q.Collapses,
			ref.Dispatches, ref.PartialUpdates, ref.IssueReads, ref.Removals, ref.Collapses)
	}
	// Program-order contents.
	pos := 0
	q.Walk(func(slot int, e *Entry) {
		if pos >= ref.Len() {
			t.Fatalf("walk visited more entries than reference holds")
		}
		r := &ref.entries[pos].Entry
		if *e != *r {
			t.Fatalf("entry at position %d diverged:\n got %+v\n ref %+v", pos, *e, *r)
		}
		if !q.Valid(slot) {
			t.Fatalf("walk visited invalid slot %d", slot)
		}
		pos++
	})
	if pos != ref.Len() {
		t.Fatalf("walk visited %d entries, reference holds %d", pos, ref.Len())
	}
	// Classified set, in program order.
	var refClass []uint64
	for i := range ref.entries {
		if ref.entries[i].Classified {
			refClass = append(refClass, ref.entries[i].Seq)
		}
	}
	cs := q.ClassifiedSlots()
	if q.ClassifiedCount() != len(refClass) || len(cs) != len(refClass) {
		t.Fatalf("classified count: got %d (%d slots), ref %d", q.ClassifiedCount(), len(cs), len(refClass))
	}
	for i, slot := range cs {
		if q.Entry(int(slot)).Seq != refClass[i] {
			t.Fatalf("classified[%d]: got seq %d, ref %d", i, q.Entry(int(slot)).Seq, refClass[i])
		}
	}
	// Select candidates: valid, unissued, all sources ready.
	refReady := map[uint64]bool{}
	for i := range ref.entries {
		e := &ref.entries[i]
		ready := !e.Issued
		for s := 0; s < e.NumSrc; s++ {
			ready = ready && e.SrcReady[s]
		}
		if ready {
			refReady[e.Seq] = true
		}
	}
	rs := q.ReadySlots()
	if len(rs) != len(refReady) {
		t.Fatalf("ready set size: got %d, ref %d", len(rs), len(refReady))
	}
	for _, slot := range rs {
		if !refReady[q.Entry(int(slot)).Seq] {
			t.Fatalf("ready set holds seq %d which reference says is not ready", q.Entry(int(slot)).Seq)
		}
	}
	// Pending stores, in program order.
	var refStores []uint64
	for i := range ref.entries {
		if ref.entries[i].isPendingStore() {
			refStores = append(refStores, ref.entries[i].Seq)
		}
	}
	var gotStores []uint64
	for slot := q.FirstPendingStore(); slot >= 0; slot = q.NextPendingStore(slot) {
		gotStores = append(gotStores, q.Entry(slot).Seq)
	}
	if len(gotStores) != len(refStores) {
		t.Fatalf("pending stores: got %v, ref %v", gotStores, refStores)
	}
	for i := range gotStores {
		if gotStores[i] != refStores[i] {
			t.Fatalf("pending stores: got %v, ref %v", gotStores, refStores)
		}
	}
}

func (l *lockstep) randomEntry(rng *rand.Rand) Entry {
	l.seq++
	e := Entry{
		Seq:     l.seq,
		PC:      0x0040_0000 + uint32(rng.Intn(64))*4,
		ROBSlot: rng.Intn(64),
		LSQSlot: -1,
		NumSrc:  rng.Intn(3),
	}
	switch rng.Intn(4) {
	case 0: // store: exercises the pending-store list
		e.Inst = isa.Inst{Op: isa.OpSW, Rs: 1, Rt: 2}
		e.LSQSlot = rng.Intn(32)
		e.NumSrc = 2
	case 1:
		e.Inst = isa.Inst{Op: isa.OpADD, Rd: 3, Rs: 1, Rt: 2}
		e.HasDest = true
		e.DestPhys = rng.Intn(16)
	default:
		e.Inst = isa.Inst{Op: isa.OpADDI, Rt: 2, Rs: 2, Imm: 1}
	}
	for s := 0; s < e.NumSrc; s++ {
		if rng.Intn(4) == 0 {
			e.SrcKind[s] = isa.KindFP
		}
		e.SrcPhys[s] = rng.Intn(16)
		e.SrcReady[s] = rng.Intn(2) == 0
	}
	e.Classified = rng.Intn(3) == 0
	return e
}

// TestQueueMatchesCollapsingReference drives random operation schedules
// through both implementations and requires bit-identical observable state.
func TestQueueMatchesCollapsingReference(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := 4 + rng.Intn(29)
		l := &lockstep{t: t, q: NewQueue(size), ref: newRefQueue(size)}
		for step := 0; step < 600; step++ {
			switch rng.Intn(12) {
			case 0, 1, 2, 3, 4: // dispatch
				e := l.randomEntry(rng)
				_, ok := l.q.Dispatch(e)
				rok := l.ref.Dispatch(e)
				if ok != rok {
					t.Fatalf("seed %d step %d: Dispatch accepted=%v, ref=%v", seed, step, ok, rok)
				}
			case 5, 6, 7: // issue a random position
				if l.ref.Len() == 0 {
					continue
				}
				pos := rng.Intn(l.ref.Len())
				slot := l.slotAt(pos)
				if l.q.MarkIssued(slot) != l.ref.MarkIssued(pos) {
					t.Fatalf("seed %d step %d: MarkIssued removal mismatch", seed, step)
				}
			case 8: // squash a random suffix
				cut := l.seq - uint64(rng.Intn(6))
				l.q.SquashAfter(cut)
				l.ref.SquashAfter(cut)
			case 9: // revoke buffering
				l.q.Revoke()
				l.ref.Revoke()
			case 10: // partial-update a random classified position
				var classified []int
				for i := range l.ref.entries {
					if l.ref.entries[i].Classified {
						classified = append(classified, i)
					}
				}
				if len(classified) == 0 {
					continue
				}
				pos := classified[rng.Intn(len(classified))]
				slot := l.slotAt(pos)
				l.seq++
				rob, lsqSlot := rng.Intn(64), -1
				if l.ref.entries[pos].Inst.Op.Info().Class == isa.ClassStore {
					lsqSlot = rng.Intn(32)
				}
				srcPhys := [2]int{rng.Intn(16), rng.Intn(16)}
				srcReady := [2]bool{rng.Intn(2) == 0, rng.Intn(2) == 0}
				dest := rng.Intn(16)
				l.q.PartialUpdate(slot, l.seq, rob, lsqSlot, srcPhys, srcReady, dest)
				l.ref.PartialUpdate(pos, l.seq, rob, lsqSlot, srcPhys, srcReady, dest)
			case 11: // broadcast a result tag
				kind := isa.KindInt
				if rng.Intn(4) == 0 {
					kind = isa.KindFP
				}
				phys := rng.Intn(16)
				l.q.Wake(kind, phys)
				l.ref.Wake(kind, phys)
			}
			l.check()
		}
	}
}

// TestQueueStoreResolutionLockstep exercises StoreResolved, which has no
// counterpart in the collapsing reference beyond clearing pending state.
func TestQueueStoreResolutionLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	l := &lockstep{t: t, q: NewQueue(16), ref: newRefQueue(16)}
	for step := 0; step < 300; step++ {
		if rng.Intn(2) == 0 && l.ref.Free() > 0 {
			e := l.randomEntry(rng)
			l.q.Dispatch(e)
			l.ref.Dispatch(e)
		} else {
			// Resolve the oldest pending store, as resolveStoreAddresses does.
			if resolved := l.q.FirstPendingStore(); resolved >= 0 {
				l.q.StoreResolved(resolved)
				seq := l.q.Entry(resolved).Seq
				for i := range l.ref.entries {
					if l.ref.entries[i].Seq == seq {
						l.ref.entries[i].storeResolved = true
					}
				}
			} else if l.ref.Len() > 0 { // nothing pending: drain via issue
				pos := rng.Intn(l.ref.Len())
				slot := l.slotAt(pos)
				l.q.MarkIssued(slot)
				l.ref.MarkIssued(pos)
			}
		}
		l.check()
	}
}
