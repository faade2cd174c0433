// Package rob implements the reorder buffer: a circular buffer of in-flight
// instructions allocated at dispatch in program order, completed out of
// order, and retired in order at commit. Entries are addressed by stable
// ring slots, which never move while an instruction is in flight.
package rob

import (
	"reuseiq/internal/isa"
)

// Entry is one in-flight instruction.
type Entry struct {
	Seq  uint64 // global program-order sequence number
	PC   uint32
	Inst isa.Inst

	// Rename bookkeeping for rollback and release.
	HasDest bool
	Dest    isa.Reg
	NewPhys int
	OldPhys int

	Done bool // executed and written back

	// Control-flow resolution.
	PredTaken  bool
	PredTarget uint32
	ActTaken   bool
	ActTarget  uint32
	Mispred    bool

	IsLoad, IsStore bool
	Halt            bool

	// Reused marks instances dispatched by the issue queue's reuse path
	// rather than the front end (statistics only).
	Reused bool

	// IssueCycle is the cycle the instruction issued (telemetry: the
	// issue-to-commit latency histogram reads it at commit).
	IssueCycle uint64
}

// ROB is the reorder buffer.
type ROB struct {
	ring  []Entry
	used  []bool
	head  int // oldest entry slot
	count int

	Allocs  uint64
	Commits uint64

	//reuse:transient scratch whose contents SquashAfter returns; never live across a cycle boundary
	squashed []Entry // scratch returned by SquashAfter
}

// New creates a reorder buffer with the given capacity.
func New(size int) *ROB {
	return &ROB{ring: make([]Entry, size), used: make([]bool, size)}
}

// Size returns the capacity.
func (r *ROB) Size() int { return len(r.ring) }

// Len returns the number of in-flight entries.
func (r *ROB) Len() int { return r.count }

// Full reports whether no entry can be allocated.
func (r *ROB) Full() bool { return r.count == len(r.ring) }

// Empty reports whether the buffer holds no instructions.
func (r *ROB) Empty() bool { return r.count == 0 }

// Alloc appends e at the tail and returns its stable slot index.
//
//reuse:hotpath
func (r *ROB) Alloc(e Entry) (int, bool) {
	if r.Full() {
		return 0, false
	}
	slot := (r.head + r.count) % len(r.ring)
	r.ring[slot] = e
	r.used[slot] = true
	r.count++
	r.Allocs++
	return slot, true
}

// Get returns the entry in the given slot.
func (r *ROB) Get(slot int) *Entry { return &r.ring[slot] }

// Head returns the oldest entry, or nil when empty.
func (r *ROB) Head() *Entry {
	if r.count == 0 {
		return nil
	}
	return &r.ring[r.head]
}

// HeadSlot returns the slot of the oldest entry. Slots run in program order
// from it, wrapping at the end of the ring.
func (r *ROB) HeadSlot() int { return r.head }

// PopHead retires the oldest entry.
func (r *ROB) PopHead() Entry {
	if r.count == 0 {
		panic("rob: pop of empty buffer")
	}
	e := r.ring[r.head]
	r.used[r.head] = false
	r.head = (r.head + 1) % len(r.ring)
	r.count--
	r.Commits++
	return e
}

// SquashAfter removes every entry with Seq > seq and returns them youngest
// first (the order required for rename rollback). Squashed slots are
// invalidated so that a stale in-flight completion can never match them.
// The returned slice is reused by the next SquashAfter call.
func (r *ROB) SquashAfter(seq uint64) []Entry {
	removed := r.squashed[:0]
	for r.count > 0 {
		tail := (r.head + r.count - 1) % len(r.ring)
		if r.ring[tail].Seq <= seq {
			break
		}
		removed = append(removed, r.ring[tail])
		r.ring[tail] = Entry{}
		r.used[tail] = false
		r.count--
	}
	r.squashed = removed
	return removed
}

// Walk calls f for each in-flight entry in program order.
func (r *ROB) Walk(f func(slot int, e *Entry)) {
	for i := 0; i < r.count; i++ {
		slot := (r.head + i) % len(r.ring)
		f(slot, &r.ring[slot])
	}
}
