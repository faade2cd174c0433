// Package core implements the paper's contribution: an issue queue that can
// detect, buffer and reuse the instructions of tight loops so that the
// pipeline front-end (instruction cache, branch predictor, fetch and decode
// logic) can be gated while the queue supplies instructions by itself.
//
// The package provides:
//
//   - Queue: a reuse-capable issue queue whose entries carry the paper's two
//     extra bits (classification bit, issue state bit) and the logical
//     register list (LRL) contents needed to re-rename buffered entries.
//   - NBLT: the non-bufferable loop table, a small FIFO CAM of loop-ending
//     addresses that prevents buffering thrash (paper §2.2.3).
//   - Controller: the loop detector and the Normal / Loop Buffering /
//     Code Reuse state machine (paper Figure 2), driven by pipeline events.
//
// The Queue models a *collapsing* queue for the power model — the activity
// counters (Removals, Collapses, IssueReads, ...) charge exactly what the
// paper's hardware would do — but is implemented as a fixed-capacity slot
// array with a free list and an intrusive program-order list, so that the
// software cost of a removal is O(1) bookkeeping instead of copying the
// queue tail. Entries are addressed by stable slot ids that never move
// while an instruction is in flight.
//
// The Queue also maintains the simulator's wakeup index: per-physical-
// register waiter lists built at dispatch and torn down at issue, squash and
// revoke, so that a result broadcast (Wake) touches only true dependents and
// the select logic (ReadySlots) never rescans the whole queue. The hardware
// CAM's energy is still charged through WakeupBroadcasts/IssueCycleScans in
// the pipeline; the index only removes the *software* O(entries) scan.
package core

import (
	"fmt"

	"reuseiq/internal/isa"
)

// Entry is one issue queue slot. The first group of fields describes the
// current dynamic instance occupying the slot; the second group is the
// buffered (reusable) information recorded while the loop was captured.
type Entry struct {
	// Current instance.
	Seq      uint64
	PC       uint32
	Inst     isa.Inst
	ROBSlot  int
	LSQSlot  int // -1 when not a memory operation
	NumSrc   int
	SrcPhys  [2]int
	SrcKind  [2]isa.RegKind
	HasDest  bool
	DestPhys int
	DestKind isa.RegKind

	// SrcReady is the per-source readiness snapshot taken at dispatch (or
	// partial update) and kept current by Wake. For a live, unissued entry
	// SrcReady[s] always equals the physical register file's ready bit for
	// SrcPhys[s]: a source can only become ready through a writeback, which
	// the pipeline forwards to the queue via Wake.
	SrcReady [2]bool

	// Issued is the paper's issue state bit: the buffered instruction has
	// been issued and may be reused (re-renamed) by the reuse pointer.
	Issued bool
	// Classified is the paper's classification bit: the instruction
	// belongs to a buffered loop and must not be removed at issue.
	Classified bool

	// Recorded static prediction for control instructions: the dynamic
	// prediction observed during Loop Buffering becomes the static
	// prediction used during Code Reuse (paper §2.3).
	StaticTaken  bool
	StaticTarget uint32
}

// slotMeta is the queue's per-slot bookkeeping, kept out of Entry so the
// architectural payload stays exactly what the hardware entry would hold.
type slotMeta struct {
	next, prev   int32  // program-order list links (-1 = none); next doubles as the free-stack link
	sNext, sPrev int32  // pending-store-address list links (-1 = none)
	orderKey     uint64 // monotonic insertion stamp; compares as program-order position
	readyPos     int32  // index into readySlots, -1 when not a candidate
	pending      int8   // number of unready sources
	valid        bool
	inStore      bool
}

// Queue is the reuse-capable issue queue. Entries sit in program order on an
// intrusive list over stable slots; removing an issued entry unlinks it in
// O(1) while the Collapses counter still charges the entry shifts the
// modeled collapsing hardware would perform. Buffered (classified) entries
// survive issue and are updated in place when reused.
type Queue struct {
	size  int
	count int

	slots []Entry
	st    []slotMeta

	head, tail int32 // program-order list bounds (-1 when empty)
	freeTop    int32 // free-slot stack head (-1 when full)
	orderGen   uint64

	// Classified-slot cache: slots of classified entries in program order,
	// rebuilt lazily after squashes/revokes invalidate it.
	classified int
	classSlots []int32
	classDirty bool

	// readySlots is the select logic's candidate set: valid, unissued
	// entries with every source ready. Unordered (swap-remove order); the
	// pipeline orders it by age through the entries' ROB slots.
	readySlots []int32

	// Wakeup index: one doubly-linked waiter list per physical register,
	// with intrusive nodes 2*slot+src. Head slices grow on demand to the
	// highest registered physical register number.
	wNext, wPrev    []int32
	wReg            []int32
	intWait, fpWait []int32

	// Pending-store-address list (program order): unissued store entries
	// whose LSQ address has not been published yet.
	storeHead, storeTail int32

	// Activity counters for the power model.
	Dispatches     uint64 // full entry writes (front-end dispatch path)
	PartialUpdates uint64 // register-info + ROB-pointer updates (reuse path)
	IssueReads     uint64 // payload reads at issue
	Removals       uint64
	Collapses      uint64 // entry positions shifted by collapsing
	SelectScans    uint64 // entries examined by the select logic
}

// NewQueue creates an issue queue with the given capacity.
func NewQueue(size int) *Queue {
	if size <= 0 {
		panic(fmt.Sprintf("core: queue size %d", size))
	}
	q := &Queue{
		size:  size,
		slots: make([]Entry, size),
		st:    make([]slotMeta, size),
		head:  -1, tail: -1,
		storeHead: -1, storeTail: -1,
		wNext: make([]int32, 2*size),
		wPrev: make([]int32, 2*size),
		wReg:  make([]int32, 2*size),
	}
	for i := range q.st {
		q.st[i].next = int32(i + 1)
	}
	q.st[size-1].next = -1
	q.freeTop = 0
	for i := range q.wReg {
		q.wReg[i] = -1
	}
	return q
}

// Size and Len report capacity and occupancy; Free the open slots.
func (q *Queue) Size() int { return q.size }
func (q *Queue) Len() int  { return q.count }
func (q *Queue) Free() int { return q.size - q.count }

// Entry returns the entry in the given slot. Slots are stable: they never
// move while the entry is in flight. Callers must not flip the Issued or
// Classified bits directly (use MarkIssued/Revoke), or the queue's candidate
// bookkeeping goes stale.
func (q *Queue) Entry(slot int) *Entry { return &q.slots[slot] }

// Valid reports whether slot currently holds a live entry.
func (q *Queue) Valid(slot int) bool { return q.st[slot].valid }

// Dispatch appends a new entry in program order and returns its slot. The
// entry's NumSrc/SrcKind/SrcPhys/SrcReady fields seed the wakeup index: each
// unready source is registered on its physical register's waiter list.
//
//reuse:hotpath
func (q *Queue) Dispatch(e Entry) (int, bool) {
	if q.count == q.size {
		return -1, false
	}
	slot := q.freeTop
	q.freeTop = q.st[slot].next
	q.slots[slot] = e
	q.orderGen++
	q.st[slot] = slotMeta{
		next: -1, prev: q.tail,
		sNext: -1, sPrev: -1,
		orderKey: q.orderGen,
		readyPos: -1,
		valid:    true,
	}
	if q.tail >= 0 {
		q.st[q.tail].next = slot
	} else {
		q.head = slot
	}
	q.tail = slot
	q.count++
	q.Dispatches++

	en := &q.slots[slot]
	if en.Classified {
		q.classified++
		if !q.classDirty {
			q.classSlots = append(q.classSlots, slot)
		}
	}
	q.indexEntry(slot, en)
	return int(slot), true
}

// indexEntry (re)builds the wakeup and pending-store state of a freshly
// written slot.
func (q *Queue) indexEntry(slot int32, en *Entry) {
	pending := int8(0)
	for s := 0; s < en.NumSrc; s++ {
		if !en.SrcReady[s] {
			pending++
			q.registerWaiter(slot, int32(s), en.SrcKind[s], en.SrcPhys[s])
		}
	}
	q.st[slot].pending = pending
	if pending == 0 && !en.Issued {
		q.addReady(slot)
	}
	if en.LSQSlot >= 0 && !en.Issued && en.Inst.Op.Info().Class == isa.ClassStore {
		q.addStore(slot)
	}
}

// MarkIssued records that the entry in slot has been selected. A
// conventional entry is removed (the modeled queue collapses); a classified
// entry stays, with its issue state bit set. It returns whether the entry
// was removed.
//
//reuse:hotpath
func (q *Queue) MarkIssued(slot int) bool {
	q.IssueReads++
	e := &q.slots[slot]
	if e.Classified {
		e.Issued = true
		q.removeReady(int32(slot))
		q.removeStore(int32(slot))
		return false
	}
	q.Removals++
	q.Collapses += uint64(q.count - 1 - q.olderCount(int32(slot)))
	q.removeSlot(int32(slot))
	return true
}

// olderCount returns the number of live entries ahead of slot in program
// order — the removed entry's position in the modeled collapsing queue. It
// walks toward both ends of the list at once and stops at the nearer one,
// so the cost is the distance to that end.
func (q *Queue) olderCount(slot int32) int {
	older, younger := q.st[slot].prev, q.st[slot].next
	for n := 0; ; n++ {
		if older < 0 {
			return n
		}
		if younger < 0 {
			return q.count - 1 - n
		}
		older, younger = q.st[older].prev, q.st[younger].next
	}
}

// SquashAfter removes all entries with Seq > seq.
//
//reuse:hotpath
func (q *Queue) SquashAfter(seq uint64) {
	for slot := q.tail; slot >= 0; {
		p := q.st[slot].prev
		if q.slots[slot].Seq > seq {
			q.removeSlot(slot)
		}
		slot = p
	}
}

// Revoke clears the buffering state (paper §2.5): classified entries that
// already issued are removed immediately; the classification bits of the
// rest are cleared, turning them back into conventional entries.
//
//reuse:hotpath
func (q *Queue) Revoke() {
	for slot := q.head; slot >= 0; {
		n := q.st[slot].next
		e := &q.slots[slot]
		if e.Classified {
			if e.Issued {
				q.Removals++
				q.removeSlot(slot)
			} else {
				e.Classified = false
			}
		}
		slot = n
	}
	q.classified = 0
	q.classSlots = q.classSlots[:0]
	q.classDirty = false
}

// ClassifiedSlots returns the slots of classified entries in buffered
// program order. The returned slice is reused across calls; it is valid
// until the next queue mutation.
func (q *Queue) ClassifiedSlots() []int32 {
	if q.classDirty {
		q.classSlots = q.classSlots[:0]
		for slot := q.head; slot >= 0; slot = q.st[slot].next {
			if q.slots[slot].Classified {
				q.classSlots = append(q.classSlots, slot)
			}
		}
		q.classDirty = false
	}
	return q.classSlots
}

// ClassifiedCount returns the number of buffered entries.
func (q *Queue) ClassifiedCount() int { return q.classified }

// PartialUpdate rewires the entry in slot to a new dynamic instance during
// Code Reuse. Only register information and the ROB/LSQ pointers change (the
// paper's reduced-activity update); opcode, immediates and the recorded
// static prediction stay. srcReady is the readiness snapshot of the new
// physical sources, taken by the caller at re-rename time.
//
//reuse:hotpath
func (q *Queue) PartialUpdate(slot int, seq uint64, robSlot, lsqSlot int, srcPhys [2]int, srcReady [2]bool, destPhys int) {
	e := &q.slots[slot]
	// The entry was issued, so it holds no waiters and is not a candidate;
	// the removals below are no-ops then, but keep direct test drivers that
	// update unissued entries from corrupting the index.
	for s := 0; s < e.NumSrc; s++ {
		q.unregisterWaiter(int32(slot), int32(s), e)
	}
	q.removeReady(int32(slot))
	q.removeStore(int32(slot))

	e.Seq = seq
	e.ROBSlot = robSlot
	e.LSQSlot = lsqSlot
	e.SrcPhys = srcPhys
	e.SrcReady = srcReady
	e.DestPhys = destPhys
	e.Issued = false
	q.PartialUpdates++
	q.indexEntry(int32(slot), e)
}

// Walk calls f for each entry in program order, passing its slot. f must
// not remove the visited entry (squash or issue a conventional entry).
func (q *Queue) Walk(f func(slot int, e *Entry)) {
	for slot := q.head; slot >= 0; slot = q.st[slot].next {
		f(int(slot), &q.slots[slot])
	}
}

// ---------------------------------------------------------- wakeup index --

// Wake marks physical register (kind, phys) ready in every waiting entry —
// the software analogue of a result-tag broadcast, but touching only true
// dependents. Entries whose last outstanding source this was become select
// candidates. The pipeline charges the modeled CAM broadcast separately
// (Counters.WakeupBroadcasts); Wake itself is pure bookkeeping.
//
//reuse:hotpath
func (q *Queue) Wake(kind isa.RegKind, phys int) {
	headp := q.waitHeads(kind)
	if phys >= len(*headp) {
		return // no entry ever waited on this register
	}
	nid := (*headp)[phys]
	(*headp)[phys] = -1
	for nid >= 0 {
		next := q.wNext[nid]
		slot, s := nid>>1, nid&1
		q.wReg[nid] = -1
		e := &q.slots[slot]
		e.SrcReady[s] = true
		q.st[slot].pending--
		if q.st[slot].pending == 0 && !e.Issued {
			q.addReady(int32(slot))
		}
		nid = next
	}
}

// ReadySlots returns the current select candidates: slots of valid, unissued
// entries whose sources are all ready. The slice is unordered (the pipeline
// visits it oldest first by marking each entry's ROB slot) and reused across
// cycles; callers must not retain or mutate it.
//
//reuse:hotpath
func (q *Queue) ReadySlots() []int32 { return q.readySlots }

func (q *Queue) waitHeads(kind isa.RegKind) *[]int32 {
	if kind == isa.KindFP {
		return &q.fpWait
	}
	return &q.intWait
}

func (q *Queue) registerWaiter(slot, s int32, kind isa.RegKind, phys int) {
	headp := q.waitHeads(kind)
	for phys >= len(*headp) {
		*headp = append(*headp, -1)
	}
	nid := slot*2 + s
	q.wReg[nid] = int32(phys)
	q.wPrev[nid] = -1
	q.wNext[nid] = (*headp)[phys]
	if old := (*headp)[phys]; old >= 0 {
		q.wPrev[old] = nid
	}
	(*headp)[phys] = nid
}

func (q *Queue) unregisterWaiter(slot, s int32, e *Entry) {
	nid := slot*2 + s
	reg := q.wReg[nid]
	if reg < 0 {
		return
	}
	if p := q.wPrev[nid]; p >= 0 {
		q.wNext[p] = q.wNext[nid]
	} else {
		(*q.waitHeads(e.SrcKind[s]))[reg] = q.wNext[nid]
	}
	if n := q.wNext[nid]; n >= 0 {
		q.wPrev[n] = q.wPrev[nid]
	}
	q.wReg[nid] = -1
}

func (q *Queue) addReady(slot int32) {
	if q.st[slot].readyPos >= 0 {
		return
	}
	q.st[slot].readyPos = int32(len(q.readySlots))
	q.readySlots = append(q.readySlots, slot)
}

func (q *Queue) removeReady(slot int32) {
	pos := q.st[slot].readyPos
	if pos < 0 {
		return
	}
	last := int32(len(q.readySlots) - 1)
	moved := q.readySlots[last]
	q.readySlots[pos] = moved
	q.st[moved].readyPos = pos
	q.readySlots = q.readySlots[:last]
	q.st[slot].readyPos = -1
}

// --------------------------------------------------- pending-store index --

// FirstPendingStore returns the oldest unissued store entry whose LSQ
// address has not been published yet, or -1 when there is none.
func (q *Queue) FirstPendingStore() int { return int(q.storeHead) }

// NextPendingStore returns the pending store after slot in program order, or
// -1. StoreResolved unlinks slot, so read its successor first.
func (q *Queue) NextPendingStore(slot int) int { return int(q.st[slot].sNext) }

// StoreResolved removes slot from the pending-store-address list, after the
// pipeline published its address to the LSQ.
func (q *Queue) StoreResolved(slot int) { q.removeStore(int32(slot)) }

// addStore inserts slot into the pending-store list at its program-order
// position. Front-end dispatches always append (orderKey is monotonic);
// reuse-path partial updates of older slots walk back from the tail.
func (q *Queue) addStore(slot int32) {
	m := &q.st[slot]
	if m.inStore {
		return
	}
	m.inStore = true
	after := q.storeTail
	for after >= 0 && q.st[after].orderKey > m.orderKey {
		after = q.st[after].sPrev
	}
	m.sPrev = after
	if after >= 0 {
		m.sNext = q.st[after].sNext
		q.st[after].sNext = slot
	} else {
		m.sNext = q.storeHead
		q.storeHead = slot
	}
	if m.sNext >= 0 {
		q.st[m.sNext].sPrev = slot
	} else {
		q.storeTail = slot
	}
}

func (q *Queue) removeStore(slot int32) {
	m := &q.st[slot]
	if !m.inStore {
		return
	}
	if m.sPrev >= 0 {
		q.st[m.sPrev].sNext = m.sNext
	} else {
		q.storeHead = m.sNext
	}
	if m.sNext >= 0 {
		q.st[m.sNext].sPrev = m.sPrev
	} else {
		q.storeTail = m.sPrev
	}
	m.sNext, m.sPrev = -1, -1
	m.inStore = false
}

// removeSlot tears a live entry out of every index and frees its slot.
func (q *Queue) removeSlot(slot int32) {
	m := &q.st[slot]
	e := &q.slots[slot]
	if m.prev >= 0 {
		q.st[m.prev].next = m.next
	} else {
		q.head = m.next
	}
	if m.next >= 0 {
		q.st[m.next].prev = m.prev
	} else {
		q.tail = m.prev
	}
	for s := 0; s < e.NumSrc; s++ {
		q.unregisterWaiter(slot, int32(s), e)
	}
	q.removeReady(slot)
	q.removeStore(slot)
	if e.Classified {
		q.classified--
		q.classDirty = true
	}
	m.valid = false
	m.next = q.freeTop
	q.freeTop = slot
	q.count--
}
