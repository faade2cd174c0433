package pipeline

import (
	"math/rand"
	"slices"
	"testing"
)

// TestAgeScanMatchesSeqSort checks the select stage's age-ordered scan
// against sorting the candidates by seq, the order select used to produce
// with a sort. Each trial places a ROB head anywhere in a ring (sizes not a
// multiple of 64 included), gives the live slots consecutive seqs from the
// head, marks a random subset as ready and cuts the scan off at a random
// issue width.
func TestAgeScanMatchesSeqSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := []int{1, 2, 16, 40, 63, 64, 65, 100, 128, 256}
	var wrapped, empty, full, cut int
	for trial := 0; trial < 20000; trial++ {
		size := sizes[rng.Intn(len(sizes))]
		head := rng.Intn(size)
		live := rng.Intn(size + 1)
		var s stageScratch
		s.fit(size)

		// seq[slot] is the program-order position of the live entry in slot.
		seq := make(map[int]int)
		var marked []int
		density := rng.Float64()
		switch rng.Intn(8) {
		case 0:
			density = 0
		case 1:
			density, live = 1, size
		}
		for i := 0; i < live; i++ {
			slot := (head + i) % size
			seq[slot] = i
			if rng.Float64() < density {
				s.ready[slot>>6] |= 1 << (slot & 63)
				marked = append(marked, slot)
			}
		}
		want := slices.Clone(marked)
		slices.SortFunc(want, func(a, b int) int { return seq[a] - seq[b] })
		width := 1 + rng.Intn(8)
		if width < len(want) {
			want = want[:width]
			cut++
		}

		scan := newAgeScan(s.ready, head)
		var got []int
		for len(got) < width {
			rs := scan.next()
			if rs < 0 {
				break
			}
			got = append(got, rs)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: size %d head %d width %d marked %v: scan %v, seq order %v",
				trial, size, head, width, marked, got, want)
		}
		if len(got) < width && scan.next() != -1 {
			t.Fatalf("trial %d: scan continues past its last set bit", trial)
		}
		switch {
		case len(marked) == 0:
			empty++
		case len(marked) == size:
			full++
		}
		if len(marked) > 0 && marked[len(marked)-1] < marked[0] {
			wrapped++
		}
	}
	if wrapped < 1000 || empty < 1000 || full < 500 || cut < 1000 {
		t.Fatalf("case mix wrapped=%d empty=%d full=%d cut=%d: generator too narrow", wrapped, empty, full, cut)
	}
}

// TestCompletionScanMatchesSeqSort checks writeback's completion order
// against sorting the cycle's completions by seq, the order writeback used
// to produce with a sort. Each trial places a ROB head anywhere in a ring,
// gives the live slots increasing seqs (with gaps) from the head, puts a
// random subset in flight in a shuffled execQ with completion cycles around
// now, collects the completions into the scratch's bitset and slot map (left
// dirty by an earlier batch), and visits them with an ageScan. Half the
// trials recover at a random completion, after which writeback visits
// nothing more.
func TestCompletionScanMatchesSeqSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sizes := []int{1, 2, 16, 40, 63, 64, 65, 100, 128, 256}
	const now = 100
	var wrapped, empty, full, recovered int
	for trial := 0; trial < 20000; trial++ {
		size := sizes[rng.Intn(len(sizes))]
		head := rng.Intn(size)
		live := rng.Intn(size + 1)
		var s stageScratch
		s.fit(size)
		var earlier []execEntry
		for slot := 0; slot < size; slot++ {
			if rng.Intn(2) == 0 {
				earlier = append(earlier, execEntry{robSlot: slot, seq: 1})
			}
		}
		s.collect(earlier, now)

		inFlight, completing := rng.Float64(), rng.Float64()
		switch rng.Intn(8) {
		case 0:
			completing = 0
		case 1:
			live, inFlight, completing = size, 1, 1
		}
		var execQ, wantKept []execEntry
		var want []uint64
		var below, above bool // completions on both sides of the head
		seq := uint64(1 + rng.Intn(1000))
		for i := 0; i < live; i++ {
			seq += uint64(1 + rng.Intn(3))
			if rng.Float64() >= inFlight {
				continue
			}
			e := execEntry{robSlot: (head + i) % size, seq: seq, valI: int32(seq), done: now + 1 + uint64(rng.Intn(3))}
			if rng.Float64() < completing {
				e.done = now - uint64(rng.Intn(3))
				want = append(want, seq)
				below, above = below || e.robSlot < head, above || e.robSlot >= head
			}
			execQ = append(execQ, e)
		}
		rng.Shuffle(len(execQ), func(i, j int) { execQ[i], execQ[j] = execQ[j], execQ[i] })
		for _, e := range execQ {
			if e.done > now {
				wantKept = append(wantKept, e)
			}
		}
		n := len(want)
		stop := ^uint64(0)
		if len(want) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(want))
			stop, want = want[k], want[:k+1]
			recovered++
		}

		kept, got := s.collect(execQ, now)
		if got != n || !slices.Equal(kept, wantKept) {
			t.Fatalf("trial %d: collect kept %v (%d done), want %v (%d done)", trial, kept, got, wantKept, n)
		}
		var order []uint64
		scan := newAgeScan(s.done, head)
		for rs := scan.next(); rs >= 0; rs = scan.next() {
			x := s.result[rs]
			if x.robSlot != rs || x.valI != int32(x.seq) {
				t.Fatalf("trial %d: slot %d maps to %+v", trial, rs, x)
			}
			order = append(order, x.seq)
			if x.seq == stop {
				break
			}
		}
		if !slices.Equal(order, want) {
			t.Fatalf("trial %d: size %d head %d: scan %v, seq order %v", trial, size, head, order, want)
		}
		switch {
		case n == 0:
			empty++
		case n == size:
			full++
		}
		if below && above {
			wrapped++
		}
	}
	if wrapped < 1000 || empty < 1000 || full < 500 || recovered < 1000 {
		t.Fatalf("case mix wrapped=%d empty=%d full=%d recovered=%d: generator too narrow", wrapped, empty, full, recovered)
	}
}
