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
