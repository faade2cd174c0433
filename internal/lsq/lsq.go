// Package lsq implements the load/store queue: memory operations are
// allocated in program order at dispatch, compute their addresses at
// execute, and stores update memory only at commit, so wrong-path execution
// can never corrupt architectural memory state. Loads forward from older
// resolved stores and wait conservatively while any older store address is
// unknown. Both checks are bounded by age: the store-address gate is one
// seq, the oldest unresolved store's, and a load's forwarding search walks
// only the entries older than its own slot.
//
// The gate does not rescan what cannot have changed: it keeps a cursor past
// the prefix of the queue already known to hold no unresolved store. The
// cursor sits beside the ring, not in Entry, so the snapshot image is
// unchanged.
package lsq

// Entry is one in-flight memory operation.
type Entry struct {
	Seq     uint64
	IsStore bool
	IsFP    bool  // double-width FP access
	Size    uint8 // access size in bytes (1, 4, or 8)

	AddrReady bool
	Addr      uint32

	// Store data, captured at execute.
	DataReady bool
	DataI     int32
	DataF     float64

	Done bool // executed (loads: value obtained; stores: addr+data ready)
}

// LSQ is the load/store queue.
type LSQ struct {
	ring  []Entry
	head  int
	count int

	// resolved is the length of the prefix, from the head, known to hold
	// no unresolved store. It grows lazily in OldestUnresolvedStore and
	// shrinks as entries leave. A live store's address, once known, stays
	// known, so nothing else can shorten the prefix.
	//reuse:transient derived from the ring; ImportState resets it
	resolved int

	Allocs         uint64
	Searches       uint64 // associative searches by loads
	Forwards       uint64 // store-to-load forwards
	ConflictStalls uint64 // load issue attempts blocked by unknown store addresses (charged by the issue stage)
}

// New creates a queue with the given capacity.
func New(size int) *LSQ {
	return &LSQ{ring: make([]Entry, size)}
}

// Size and Len report capacity and occupancy.
func (q *LSQ) Size() int { return len(q.ring) }
func (q *LSQ) Len() int  { return q.count }

// Full reports whether an allocation would fail.
func (q *LSQ) Full() bool { return q.count == len(q.ring) }

// Alloc appends a zeroed memory operation and returns its stable slot and
// the entry, for the caller to fill in place. It returns nil when the queue
// is full.
//
//reuse:hotpath
func (q *LSQ) Alloc() (int, *Entry) {
	if q.Full() {
		return 0, nil
	}
	slot := (q.head + q.count) % len(q.ring)
	e := &q.ring[slot]
	*e = Entry{}
	q.count++
	q.Allocs++
	return slot, e
}

// Get returns the entry in slot.
func (q *LSQ) Get(slot int) *Entry { return &q.ring[slot] }

// HeadSlot returns the slot of the oldest entry.
func (q *LSQ) HeadSlot() int { return q.head }

// Head returns the oldest entry, or nil.
func (q *LSQ) Head() *Entry {
	if q.count == 0 {
		return nil
	}
	return &q.ring[q.head]
}

// PopHead removes the oldest entry (when its instruction commits); read it
// through Head first.
//
//reuse:hotpath
func (q *LSQ) PopHead() {
	if q.count == 0 {
		panic("lsq: pop of empty queue")
	}
	q.head = (q.head + 1) % len(q.ring)
	q.count--
	if q.resolved > 0 {
		q.resolved--
	}
}

// SquashAfter drops all entries with Seq > seq.
//
//reuse:hotpath
func (q *LSQ) SquashAfter(seq uint64) {
	for q.count > 0 {
		tail := (q.head + q.count - 1) % len(q.ring)
		if q.ring[tail].Seq <= seq {
			break
		}
		q.count--
	}
	q.resolved = min(q.resolved, q.count)
}

// NoUnresolvedStore is what OldestUnresolvedStore returns when every store
// in the queue has a known address.
const NoUnresolvedStore = ^uint64(0)

// OldestUnresolvedStore returns the seq of the oldest store whose address is
// still unknown, or NoUnresolvedStore. A load issues only when this bound is
// not older than it (conservative disambiguation): some older store is
// unresolved exactly when the oldest unresolved store is older than the
// load. The caller charges ConflictStalls for each blocked issue attempt.
// The scan starts past the prefix already known to be resolved, so over a
// run each entry is passed about once.
//
//reuse:hotpath
func (q *LSQ) OldestUnresolvedStore() uint64 {
	i := q.head + q.resolved
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	for ; q.resolved < q.count; q.resolved++ {
		if e := &q.ring[i]; e.IsStore && !e.AddrReady {
			return e.Seq
		}
		if i++; i == len(q.ring) {
			i = 0
		}
	}
	return NoUnresolvedStore
}

// ForwardResult describes the outcome of a load's associative search.
type ForwardResult int

const (
	// FromMemory: no older store overlaps; read the data cache.
	FromMemory ForwardResult = iota
	// Forwarded: the youngest older matching store supplies the data.
	Forwarded
	// MustWait: an older store overlaps with mismatched size/alignment
	// (or unresolved address); the load must retry later.
	MustWait
)

// SearchForLoad performs the associative search of the load in slot against
// older stores. The ring is in program order, so the older entries are
// exactly those between the head and the load's slot; the scan visits them
// youngest first and the first overlap decides. It returns the deciding
// store's slot: on Forwarded the caller reads the value from that entry, and
// on MustWait it names the overlapping store that cannot forward (-1 when an
// older store's address is unknown, which the issue stage's store gate rules
// out). That answer cannot change until the store issues (its data becomes
// ready) or commits: every older store's address is known and stays put,
// and no older store can appear later. FromMemory returns -1.
//
//reuse:hotpath
func (q *LSQ) SearchForLoad(slot int, addr uint32, size uint8) (ForwardResult, int) {
	q.Searches++
	for i := slot; i != q.head; {
		if i == 0 {
			i = len(q.ring)
		}
		i--
		e := &q.ring[i]
		if !e.IsStore {
			continue
		}
		if !e.AddrReady {
			return MustWait, -1
		}
		if !overlaps(e.Addr, uint32(e.Size), addr, uint32(size)) {
			continue
		}
		if e.Addr == addr && e.Size == size && e.DataReady {
			q.Forwards++
			return Forwarded, i
		}
		return MustWait, i
	}
	return FromMemory, -1
}

func overlaps(a1, s1, a2, s2 uint32) bool {
	return a1 < a2+s2 && a2 < a1+s1
}

// Walk calls f over all entries in program order.
func (q *LSQ) Walk(f func(slot int, e *Entry)) {
	for i := 0; i < q.count; i++ {
		slot := (q.head + i) % len(q.ring)
		f(slot, &q.ring[slot])
	}
}
