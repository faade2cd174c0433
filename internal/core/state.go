// Snapshot support: exported state images of the issue queue, the NBLT and
// the controller, with validating importers. The images are plain data (no
// pointers into the live structures), so a snapshot taken between cycles
// stays valid while the machine keeps running. Import methods reject any
// structurally inconsistent image with a descriptive error instead of
// panicking later: slot references, ready-list positions and wakeup-index
// links are all bounds-checked and cross-checked before anything is applied.
package core

import (
	"fmt"

	"reuseiq/internal/isa"
)

// SlotMetaState is the exported image of one slot's internal bookkeeping
// (program-order links, pending-store links, ready-list position).
type SlotMetaState struct {
	Next     int32
	Prev     int32
	SNext    int32
	SPrev    int32
	OrderKey uint64
	ReadyPos int32
	Pending  int8
	Valid    bool
	InStore  bool
}

// QueueState is the complete serializable image of a Queue. Free-stack order
// (threaded through Next of invalid slots), OrderGen and the wakeup index are
// all part of the image: bit-identical continuation requires that a restored
// queue hand out slots and wake waiters in exactly the order the original
// would have.
type QueueState struct {
	Count int
	Slots []Entry
	Meta  []SlotMetaState

	Head     int32
	Tail     int32
	FreeTop  int32
	OrderGen uint64

	Classified int
	ClassSlots []int32
	ClassDirty bool

	ReadySlots []int32

	WNext           []int32
	WPrev           []int32
	WReg            []int32
	IntWait, FPWait []int32

	StoreHead int32
	StoreTail int32

	Dispatches, PartialUpdates, IssueReads, Removals, Collapses, SelectScans uint64
}

// ExportState returns a deep copy of the queue's state.
func (q *Queue) ExportState() QueueState {
	st := QueueState{
		Count:      q.count,
		Slots:      append([]Entry(nil), q.slots...),
		Meta:       make([]SlotMetaState, q.size),
		Head:       q.head,
		Tail:       q.tail,
		FreeTop:    q.freeTop,
		OrderGen:   q.orderGen,
		Classified: q.classified,
		ClassSlots: append([]int32(nil), q.classSlots...),
		ClassDirty: q.classDirty,
		ReadySlots: append([]int32(nil), q.readySlots...),
		WNext:      append([]int32(nil), q.wNext...),
		WPrev:      append([]int32(nil), q.wPrev...),
		WReg:       append([]int32(nil), q.wReg...),
		IntWait:    append([]int32(nil), q.intWait...),
		FPWait:     append([]int32(nil), q.fpWait...),
		StoreHead:  q.storeHead,
		StoreTail:  q.storeTail,

		Dispatches: q.Dispatches, PartialUpdates: q.PartialUpdates,
		IssueReads: q.IssueReads, Removals: q.Removals,
		Collapses: q.Collapses, SelectScans: q.SelectScans,
	}
	for i, m := range q.st {
		st.Meta[i] = SlotMetaState{
			Next: m.next, Prev: m.prev, SNext: m.sNext, SPrev: m.sPrev,
			OrderKey: m.orderKey, ReadyPos: m.readyPos, Pending: m.pending,
			Valid: m.valid, InStore: m.inStore,
		}
	}
	return st
}

// ImportState overwrites the queue with st after validating it against the
// queue's size. The queue must have been built with the same capacity.
func (q *Queue) ImportState(st QueueState) error {
	if err := q.validateState(&st); err != nil {
		return err
	}
	q.count = st.Count
	copy(q.slots, st.Slots)
	for i, m := range st.Meta {
		q.st[i] = slotMeta{
			next: m.Next, prev: m.Prev, sNext: m.SNext, sPrev: m.SPrev,
			orderKey: m.OrderKey, readyPos: m.ReadyPos, pending: m.Pending,
			valid: m.Valid, inStore: m.InStore,
		}
	}
	q.head, q.tail, q.freeTop = st.Head, st.Tail, st.FreeTop
	q.orderGen = st.OrderGen
	q.classified = st.Classified
	q.classSlots = append(q.classSlots[:0], st.ClassSlots...)
	q.classDirty = st.ClassDirty
	q.readySlots = append(q.readySlots[:0], st.ReadySlots...)
	clear(q.byROB.ready)
	for _, slot := range q.readySlots {
		q.byROB.add(q.slots[slot].ROBSlot, slot)
	}
	copy(q.wNext, st.WNext)
	copy(q.wPrev, st.WPrev)
	copy(q.wReg, st.WReg)
	q.intWait = append(q.intWait[:0], st.IntWait...)
	q.fpWait = append(q.fpWait[:0], st.FPWait...)
	q.storeHead, q.storeTail = st.StoreHead, st.StoreTail
	q.Dispatches, q.PartialUpdates = st.Dispatches, st.PartialUpdates
	q.IssueReads, q.Removals = st.IssueReads, st.Removals
	q.Collapses, q.SelectScans = st.Collapses, st.SelectScans
	return nil
}

func (q *Queue) validateState(st *QueueState) error {
	size := q.size
	slotRef := func(name string, v int32) error {
		if v < -1 || v >= int32(size) {
			return fmt.Errorf("core: queue state: %s holds slot %d, want [-1,%d)", name, v, size)
		}
		return nil
	}
	if len(st.Slots) != size || len(st.Meta) != size {
		return fmt.Errorf("core: queue state: %d slots / %d meta for queue of size %d",
			len(st.Slots), len(st.Meta), size)
	}
	if n := 2 * size; len(st.WNext) != n || len(st.WPrev) != n || len(st.WReg) != n {
		return fmt.Errorf("core: queue state: wakeup arrays %d/%d/%d, want %d",
			len(st.WNext), len(st.WPrev), len(st.WReg), n)
	}
	if st.Count < 0 || st.Count > size {
		return fmt.Errorf("core: queue state: count %d for size %d", st.Count, size)
	}
	for _, c := range []struct {
		name string
		v    int32
	}{{"head", st.Head}, {"tail", st.Tail}, {"freeTop", st.FreeTop},
		{"storeHead", st.StoreHead}, {"storeTail", st.StoreTail}} {
		if err := slotRef(c.name, c.v); err != nil {
			return err
		}
	}
	valid := 0
	for i, m := range st.Meta {
		for _, c := range []struct {
			name string
			v    int32
		}{{"meta.next", m.Next}, {"meta.prev", m.Prev},
			{"meta.sNext", m.SNext}, {"meta.sPrev", m.SPrev}} {
			if err := slotRef(c.name, c.v); err != nil {
				return fmt.Errorf("slot %d: %w", i, err)
			}
		}
		// ReadyPos is meaningful only while the slot is valid; free slots
		// carry whatever it last held (the zero value on a never-used slot).
		if m.Valid && (m.ReadyPos < -1 || (m.ReadyPos >= 0 && int(m.ReadyPos) >= len(st.ReadySlots))) {
			return fmt.Errorf("core: queue state: slot %d readyPos %d, ready list has %d",
				i, m.ReadyPos, len(st.ReadySlots))
		}
		if m.Pending < 0 || m.Pending > 2 {
			return fmt.Errorf("core: queue state: slot %d pending %d", i, m.Pending)
		}
		if m.Valid {
			valid++
		}
	}
	if valid != st.Count {
		return fmt.Errorf("core: queue state: count %d but %d valid slots", st.Count, valid)
	}
	if st.Classified < 0 || st.Classified > size {
		return fmt.Errorf("core: queue state: classified %d", st.Classified)
	}
	if len(st.ClassSlots) > size || len(st.ReadySlots) > size {
		return fmt.Errorf("core: queue state: classSlots %d / readySlots %d exceed size %d",
			len(st.ClassSlots), len(st.ReadySlots), size)
	}
	for i, s := range st.ClassSlots {
		if s < 0 || s >= int32(size) {
			return fmt.Errorf("core: queue state: classSlots[%d] = %d", i, s)
		}
	}
	for pos, s := range st.ReadySlots {
		if s < 0 || s >= int32(size) {
			return fmt.Errorf("core: queue state: readySlots[%d] = %d", pos, s)
		}
		if !st.Meta[s].Valid {
			return fmt.Errorf("core: queue state: readySlots[%d] = invalid slot %d", pos, s)
		}
		if st.Meta[s].ReadyPos != int32(pos) {
			return fmt.Errorf("core: queue state: readySlots[%d] = slot %d whose readyPos is %d",
				pos, s, st.Meta[s].ReadyPos)
		}
	}
	// Select indexes the candidates by ROB slot, so each must name its own.
	robSeen := make([]bool, len(q.byROB.slot))
	for pos, s := range st.ReadySlots {
		rs := st.Slots[s].ROBSlot
		if rs < 0 || rs >= len(robSeen) || robSeen[rs] {
			return fmt.Errorf("core: queue state: readySlots[%d] = slot %d names ROB slot %d, out of range or taken",
				pos, s, rs)
		}
		robSeen[rs] = true
	}
	for i, e := range st.Slots {
		if e.NumSrc < 0 || e.NumSrc > 2 {
			return fmt.Errorf("core: queue state: slot %d numSrc %d", i, e.NumSrc)
		}
		if e.SrcKind[0] > isa.KindFP || e.SrcKind[1] > isa.KindFP || e.DestKind > isa.KindFP {
			return fmt.Errorf("core: queue state: slot %d has invalid register kind", i)
		}
	}
	// The wakeup index: node links stay inside the node array, and a
	// registered node must belong to a valid entry's in-range source whose
	// kind-specific head array covers the register.
	nodeRef := func(name string, v int32) error {
		if v < -1 || v >= int32(2*size) {
			return fmt.Errorf("core: queue state: %s holds node %d, want [-1,%d)", name, v, 2*size)
		}
		return nil
	}
	if len(st.IntWait) > maxWaitHeads || len(st.FPWait) > maxWaitHeads {
		return fmt.Errorf("core: queue state: wait head arrays %d/%d exceed cap %d",
			len(st.IntWait), len(st.FPWait), maxWaitHeads)
	}
	for nid := range st.WReg {
		if err := nodeRef("wNext", st.WNext[nid]); err != nil {
			return err
		}
		if err := nodeRef("wPrev", st.WPrev[nid]); err != nil {
			return err
		}
		reg := st.WReg[nid]
		if reg == -1 {
			continue
		}
		slot, s := nid>>1, nid&1
		if !st.Meta[slot].Valid {
			return fmt.Errorf("core: queue state: node %d registered on invalid slot %d", nid, slot)
		}
		e := &st.Slots[slot]
		if s >= e.NumSrc {
			return fmt.Errorf("core: queue state: node %d registered for source %d of %d", nid, s, e.NumSrc)
		}
		heads := st.IntWait
		if e.SrcKind[s] == isa.KindFP {
			heads = st.FPWait
		}
		if reg < 0 || int(reg) >= len(heads) {
			return fmt.Errorf("core: queue state: node %d waits on register %d, head array has %d",
				nid, reg, len(heads))
		}
	}
	for i, n := range st.IntWait {
		if err := nodeRef(fmt.Sprintf("intWait[%d]", i), n); err != nil {
			return err
		}
	}
	for i, n := range st.FPWait {
		if err := nodeRef(fmt.Sprintf("fpWait[%d]", i), n); err != nil {
			return err
		}
	}
	return nil
}

// maxWaitHeads bounds the wakeup head arrays in an imported image. They grow
// to the highest physical register number ever waited on, which is far below
// this; the cap exists so a corrupt image cannot demand a huge allocation.
const maxWaitHeads = 1 << 20

// NBLTState is the serializable image of an NBLT.
type NBLTState struct {
	Addrs []uint32
	Valid []bool
	Next  int

	Lookups, Hits, Inserts uint64
}

// ExportState returns a deep copy of the table's state.
func (n *NBLT) ExportState() NBLTState {
	return NBLTState{
		Addrs:   append([]uint32(nil), n.addrs...),
		Valid:   append([]bool(nil), n.valid...),
		Next:    n.next,
		Lookups: n.Lookups, Hits: n.Hits, Inserts: n.Inserts,
	}
}

// ImportState overwrites the table with st after validating its shape.
func (n *NBLT) ImportState(st NBLTState) error {
	if len(st.Addrs) != len(n.addrs) || len(st.Valid) != len(n.valid) {
		return fmt.Errorf("core: nblt state: %d addrs / %d valid for table of size %d",
			len(st.Addrs), len(st.Valid), len(n.addrs))
	}
	if len(n.addrs) == 0 {
		if st.Next != 0 {
			return fmt.Errorf("core: nblt state: next %d for empty table", st.Next)
		}
	} else if st.Next < 0 || st.Next >= len(n.addrs) {
		return fmt.Errorf("core: nblt state: next %d for table of size %d", st.Next, len(n.addrs))
	}
	copy(n.addrs, st.Addrs)
	copy(n.valid, st.Valid)
	n.next = st.Next
	n.Lookups, n.Hits, n.Inserts = st.Lookups, st.Hits, st.Inserts
	return nil
}

// ControllerState is the serializable image of a Controller (configuration
// excluded: a restored controller is rebuilt from the machine's Config first
// and must match, which the snapshot layer enforces via the config
// fingerprint).
type ControllerState struct {
	State         State
	LoopHead      uint32
	LoopTail      uint32
	CallDepth     int
	IterCount     int
	LastIterSize  int
	FirstIterDone bool
	ReuseOrd      int
	Wraps         uint64

	S    Stats
	NBLT NBLTState
}

// ExportState returns a copy of the controller's state.
func (c *Controller) ExportState() ControllerState {
	return ControllerState{
		State:         c.state,
		LoopHead:      c.loopHead,
		LoopTail:      c.loopTail,
		CallDepth:     c.callDepth,
		IterCount:     c.iterCount,
		LastIterSize:  c.lastIterSize,
		FirstIterDone: c.firstIterDone,
		ReuseOrd:      c.reuseOrd,
		Wraps:         c.wraps,
		S:             c.S,
		NBLT:          c.nblt.ExportState(),
	}
}

// ImportState overwrites the controller with st. The managed queue must
// already hold its restored image: the reuse pointer is validated against the
// queue's classified-entry count.
func (c *Controller) ImportState(st ControllerState) error {
	if st.State > Reuse {
		return fmt.Errorf("core: controller state: invalid state %d", st.State)
	}
	if st.CallDepth < 0 || st.IterCount < 0 || st.LastIterSize < 0 {
		return fmt.Errorf("core: controller state: negative counter (call %d, iter %d, last %d)",
			st.CallDepth, st.IterCount, st.LastIterSize)
	}
	if st.ReuseOrd < 0 || (st.ReuseOrd > 0 && st.ReuseOrd >= c.q.Size()) {
		return fmt.Errorf("core: controller state: reuse pointer %d for queue of size %d",
			st.ReuseOrd, c.q.Size())
	}
	if st.State == Reuse && c.q.ClassifiedCount() > 0 && st.ReuseOrd >= c.q.ClassifiedCount() {
		return fmt.Errorf("core: controller state: reuse pointer %d with %d classified entries",
			st.ReuseOrd, c.q.ClassifiedCount())
	}
	if err := c.nblt.ImportState(st.NBLT); err != nil {
		return err
	}
	c.state = st.State
	c.loopHead, c.loopTail = st.LoopHead, st.LoopTail
	c.callDepth = st.CallDepth
	c.iterCount = st.IterCount
	c.lastIterSize = st.LastIterSize
	c.firstIterDone = st.FirstIterDone
	c.reuseOrd = st.ReuseOrd
	c.wraps = st.Wraps
	c.S = st.S
	return nil
}
