package lsq

import (
	"math/rand"
	"testing"
)

// This file checks the age-bounded memory checks against reference copies
// of the original seq-based scans, which compared every live entry's seq
// with the load's: on random ring states (wrapped heads, mixed resolved and
// unresolved stores, sub-word, partial and exact overlaps, stores whose
// data is not ready yet) the store-address gate and the slot-anchored
// forwarding search must return the same results and charge the same
// Searches, Forwards and ConflictStalls.

// refOlderStoreAddrsKnown is the original gate: scan from the head up to the
// load's seq for an unresolved store, charging a stall when one is found.
func refOlderStoreAddrsKnown(q *LSQ, seq uint64) bool {
	for i := 0; i < q.count; i++ {
		e := &q.ring[(q.head+i)%len(q.ring)]
		if e.Seq >= seq {
			break
		}
		if e.IsStore && !e.AddrReady {
			q.ConflictStalls++
			return false
		}
	}
	return true
}

// refSearchForLoad is the original search: walk the whole queue from the
// tail, skipping entries not older than the load's seq. It returns the
// deciding store's slot, -1 when none decides or its address is unknown.
func refSearchForLoad(q *LSQ, seq uint64, addr uint32, size uint8) (ForwardResult, int) {
	q.Searches++
	for i := q.count - 1; i >= 0; i-- {
		slot := (q.head + i) % len(q.ring)
		e := &q.ring[slot]
		if e.Seq >= seq || !e.IsStore {
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
			return Forwarded, slot
		}
		return MustWait, slot
	}
	return FromMemory, -1
}

var accessSizes = []uint8{1, 2, 4, 8}

// randomQueue builds a queue of random capacity whose head sits anywhere in
// the ring (often near its end, so the live entries wrap) holding a random
// program-ordered mix of loads and stores over a small address window.
func randomQueue(rng *rand.Rand) *LSQ {
	size := 1 + rng.Intn(16)
	q := New(size)
	head := rng.Intn(size)
	if rng.Intn(2) == 0 {
		head = size - 1 - rng.Intn(min(size, 3))
	}
	for i := 0; i < head; i++ {
		push(q, load(0, 4))
		q.PopHead()
	}
	seq := uint64(1 + rng.Intn(100))
	for n := rng.Intn(size + 1); n > 0; n-- {
		seq += uint64(1 + rng.Intn(3)) // gaps: squashed or non-memory seqs
		sz := accessSizes[rng.Intn(len(accessSizes))]
		e := Entry{Seq: seq, Size: sz, IsFP: sz == 8}
		if rng.Intn(2) == 0 {
			e.IsStore = true
			e.AddrReady = rng.Intn(4) != 0
			e.Addr = 0x100 + uint32(rng.Intn(24))
			e.DataReady = e.AddrReady && rng.Intn(5) != 0
			e.DataI = rng.Int31()
			e.DataF = rng.Float64()
		}
		push(q, e)
	}
	return q
}

// clone copies a queue, counters included.
func clone(q *LSQ) *LSQ {
	c := New(q.Size())
	if err := c.ImportState(q.ExportState()); err != nil {
		panic(err)
	}
	return c
}

// randomAccess picks a load access: half the time exactly some store's
// (address, size), so exact-match forwarding is common, otherwise anywhere
// in the window with any size.
func randomAccess(rng *rand.Rand, q *LSQ) (uint32, uint8) {
	if rng.Intn(2) == 0 {
		var stores []*Entry
		q.Walk(func(_ int, e *Entry) {
			if e.IsStore {
				stores = append(stores, e)
			}
		})
		if len(stores) > 0 {
			s := stores[rng.Intn(len(stores))]
			return s.Addr, s.Size
		}
	}
	return 0x100 + uint32(rng.Intn(24)), accessSizes[rng.Intn(len(accessSizes))]
}

func TestSearchMatchesSeqScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var forwards, waits, fromMem int
	for trial := 0; trial < 20000; trial++ {
		q := randomQueue(rng)
		ref := clone(q)
		q.Walk(func(slot int, e *Entry) {
			if e.IsStore {
				return
			}
			addr, size := randomAccess(rng, q)
			got, gotSt := q.SearchForLoad(slot, addr, size)
			want, wantSt := refSearchForLoad(ref, e.Seq, addr, size)
			if got != want || gotSt != wantSt {
				t.Fatalf("trial %d: load seq %d slot %d access 0x%x/%d: got (%v store %d), reference (%v store %d)\n%+v",
					trial, e.Seq, slot, addr, size, got, gotSt, want, wantSt, q.ExportState())
			}
			switch got {
			case Forwarded:
				forwards++
			case MustWait:
				waits++
			default:
				fromMem++
			}
		})
		if q.Searches != ref.Searches || q.Forwards != ref.Forwards {
			t.Fatalf("trial %d: searches/forwards %d/%d, reference %d/%d",
				trial, q.Searches, q.Forwards, ref.Searches, ref.Forwards)
		}
	}
	// The generator must exercise every outcome, or the match proves little.
	if forwards < 1000 || waits < 1000 || fromMem < 1000 {
		t.Fatalf("outcome mix forwards=%d waits=%d fromMemory=%d: generator too narrow", forwards, waits, fromMem)
	}
}

// TestStoreGateMatchesSeqScan replays a select pass: memory operations are
// visited oldest first, a store may issue (publishing its address), and a
// load is gated by one bound that is found on the first load and found again
// only when the store it names issues — the issue stage's protocol. Every
// gate decision and the ConflictStalls count must match the original scan
// run at the same point of the pass.
func TestStoreGateMatchesSeqScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var blocked, passed int
	for trial := 0; trial < 20000; trial++ {
		q := randomQueue(rng)
		ref := clone(q)
		bound, known := uint64(0), false
		q.Walk(func(slot int, e *Entry) {
			if e.IsStore {
				if !e.AddrReady && rng.Intn(2) == 0 {
					e.AddrReady = true
					ref.Get(slot).AddrReady = true
					if e.Seq == bound {
						known = false
					}
				}
				return
			}
			if !known {
				bound, known = q.OldestUnresolvedStore(), true
			}
			gated := bound < e.Seq
			if gated {
				q.ConflictStalls++
				blocked++
			} else {
				passed++
			}
			if want := !refOlderStoreAddrsKnown(ref, e.Seq); gated != want {
				t.Fatalf("trial %d: load seq %d gated=%v, reference %v (bound %d)\n%+v",
					trial, e.Seq, gated, want, bound, q.ExportState())
			}
		})
		if q.ConflictStalls != ref.ConflictStalls {
			t.Fatalf("trial %d: conflict stalls %d, reference %d", trial, q.ConflictStalls, ref.ConflictStalls)
		}
	}
	if blocked < 1000 || passed < 1000 {
		t.Fatalf("gate mix blocked=%d passed=%d: generator too narrow", blocked, passed)
	}
}

// TestChecksMatchScansOverSequences drives a queue through random operation
// sequences (allocation, address resolution, store data arriving, commit
// from the head, squash, and a snapshot image imported back in
// mid-sequence) and checks both memory checks after each step against the
// reference scans run on a twin queue. The gate's resolved-prefix cursor
// carries over from step to step, so every way entries leave the queue is
// exercised against it. The same load is searched again and again, mostly
// at one access and sometimes at another, and every answer and every
// Searches, Forwards and ConflictStalls count must match the reference
// exactly.
func TestChecksMatchScansOverSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var waits, forwards, fromMem, blocked, imports int
	for trial := 0; trial < 3000; trial++ {
		size := 1 + rng.Intn(16)
		q, ref := New(size), New(size)
		access := make([][2]uint32, size) // per slot: the load's usual address and size
		seq := uint64(1 + rng.Intn(100))
		var saved *State
		// live picks a random live slot whose entry satisfies ok, or -1.
		live := func(ok func(e *Entry) bool) int {
			var slots []int
			q.Walk(func(slot int, e *Entry) {
				if ok(e) {
					slots = append(slots, slot)
				}
			})
			if len(slots) == 0 {
				return -1
			}
			return slots[rng.Intn(len(slots))]
		}
		for step := 0; step < 150; step++ {
			switch op := rng.Intn(16); {
			case op < 4: // dispatch a memory operation
				if q.Full() {
					break
				}
				seq += uint64(1 + rng.Intn(3))
				sz := accessSizes[rng.Intn(len(accessSizes))]
				e := Entry{Seq: seq, Size: sz, IsFP: sz == 8, IsStore: rng.Intn(2) == 0}
				slot, _ := push(q, e)
				push(ref, e)
				access[slot] = [2]uint32{0x100 + uint32(rng.Intn(24)), uint32(sz)}
			case op < 6: // a store's address resolves
				if slot := live(func(e *Entry) bool { return e.IsStore && !e.AddrReady }); slot >= 0 {
					addr := 0x100 + uint32(rng.Intn(24))
					// Often at a live load's usual access, so loads forward.
					sz := uint32(q.Get(slot).Size)
					l := live(func(e *Entry) bool { return !e.IsStore })
					if l >= 0 && access[l][1] == sz && rng.Intn(4) != 0 {
						addr = access[l][0]
					}
					for _, x := range []*LSQ{q, ref} {
						x.Get(slot).AddrReady, x.Get(slot).Addr = true, addr
					}
				}
			case op < 8: // a resolved store's data arrives
				if slot := live(func(e *Entry) bool { return e.IsStore && e.AddrReady && !e.DataReady }); slot >= 0 {
					v := rng.Int31()
					for _, x := range []*LSQ{q, ref} {
						x.Get(slot).DataReady, x.Get(slot).DataI, x.Get(slot).DataF = true, v, float64(v)
					}
				}
			case op < 9: // the head commits
				if q.Len() > 0 {
					q.PopHead()
					ref.PopHead()
				}
			case op < 10: // a mispredict squashes the youngest entries
				if slot := live(func(*Entry) bool { return true }); slot >= 0 {
					s := q.Get(slot).Seq
					q.SquashAfter(s)
					ref.SquashAfter(s)
				}
			case op < 11: // snapshot now, or restore an earlier snapshot
				if saved == nil || rng.Intn(2) == 0 {
					st := q.ExportState()
					saved = &st
					break
				}
				for _, x := range []*LSQ{q, ref} {
					if err := x.ImportState(*saved); err != nil {
						t.Fatal(err)
					}
				}
				imports++
			default: // a load tries to issue: the gate, then the search
				slot := live(func(e *Entry) bool { return !e.IsStore })
				if slot < 0 {
					break
				}
				e := q.Get(slot)
				gated := q.OldestUnresolvedStore() < e.Seq
				if gated {
					q.ConflictStalls++
					blocked++
				}
				if want := !refOlderStoreAddrsKnown(ref, e.Seq); gated != want {
					t.Fatalf("trial %d step %d: load seq %d gated=%v, reference %v\n%+v",
						trial, step, e.Seq, gated, want, q.ExportState())
				}
				addr, size := access[slot][0], uint8(access[slot][1])
				if rng.Intn(4) == 0 {
					addr, size = randomAccess(rng, q)
				}
				got, gotSt := q.SearchForLoad(slot, addr, size)
				want, wantSt := refSearchForLoad(ref, e.Seq, addr, size)
				if got != want || gotSt != wantSt {
					t.Fatalf("trial %d step %d: load seq %d slot %d access 0x%x/%d: got (%v store %d), reference (%v store %d)\n%+v",
						trial, step, e.Seq, slot, addr, size, got, gotSt, want, wantSt, q.ExportState())
				}
				switch got {
				case Forwarded:
					forwards++
				case MustWait:
					waits++
				default:
					fromMem++
				}
			}
			if q.Searches != ref.Searches || q.Forwards != ref.Forwards || q.ConflictStalls != ref.ConflictStalls {
				t.Fatalf("trial %d step %d: searches/forwards/stalls %d/%d/%d, reference %d/%d/%d", trial, step,
					q.Searches, q.Forwards, q.ConflictStalls, ref.Searches, ref.Forwards, ref.ConflictStalls)
			}
		}
	}
	if waits < 1000 || forwards < 1000 || fromMem < 1000 || blocked < 1000 || imports < 1000 {
		t.Fatalf("mix waits=%d forwards=%d fromMemory=%d blocked=%d imports=%d: generator too narrow",
			waits, forwards, fromMem, blocked, imports)
	}
}
