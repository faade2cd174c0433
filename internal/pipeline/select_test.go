package pipeline

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"reuseiq/internal/asm"
	"reuseiq/internal/chaos"
	"reuseiq/internal/compiler"
	"reuseiq/internal/core"
	"reuseiq/internal/fu"
	"reuseiq/internal/prog"
	"reuseiq/internal/workloads"
)

// TestAgeScanMatchesSeqSort checks the select stage's age-ordered scan
// against sorting the candidates by seq, the order select used to produce
// with a sort. Each trial places a ROB head anywhere in a ring (sizes not a
// multiple of 64 included), gives the live slots consecutive seqs from the
// head, marks a random subset as ready, skips a random part of those (the
// parked loads) and cuts the scan off at a random issue width. The scan must
// visit the unskipped candidates in seq order and count the skipped ones
// older than each; when the candidates run out it counts them all.
func TestAgeScanMatchesSeqSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := []int{1, 2, 16, 40, 63, 64, 65, 100, 128, 256}
	var wrapped, empty, full, cut, skipped int
	for trial := 0; trial < 20000; trial++ {
		size := sizes[rng.Intn(len(sizes))]
		head := rng.Intn(size)
		live := rng.Intn(size + 1)
		ready := make([]uint64, (size+63)/64)
		skip := make([]uint64, len(ready))

		// seq[slot] is the program-order position of the live entry in slot.
		seq := make(map[int]int)
		var marked []int
		density, skipRate := rng.Float64(), rng.Float64()
		switch rng.Intn(8) {
		case 0:
			density = 0
		case 1:
			density, live = 1, size
		case 2:
			skipRate = 0
		}
		for i := 0; i < live; i++ {
			slot := (head + i) % size
			seq[slot] = i
			if rng.Float64() < density {
				ready[slot>>6] |= 1 << (slot & 63)
				marked = append(marked, slot)
				if rng.Float64() < skipRate {
					skip[slot>>6] |= 1 << (slot & 63)
				}
			}
		}
		sorted := slices.Clone(marked)
		slices.SortFunc(sorted, func(a, b int) int { return seq[a] - seq[b] })
		width := 1 + rng.Intn(8)
		// want lists the visits up to the cut with the skipped slots passed
		// before each; the last pair, at -1, counts the rest when the
		// candidates run out first.
		type visit struct{ slot, passed int }
		var want []visit
		n := 0
		for _, slot := range sorted {
			if skip[slot>>6]&(1<<(slot&63)) != 0 {
				n++
				continue
			}
			if len(want) == width {
				break
			}
			want, n = append(want, visit{slot, n}), 0
		}
		if len(want) < width {
			want = append(want, visit{-1, n})
		} else {
			cut++
		}

		var scan ageScan
		scan.start(ready, skip, head)
		var got []visit
		for len(got) < width {
			rs := scan.next()
			if rs < 0 {
				got = append(got, visit{-1, scan.passed})
				break
			}
			got = append(got, visit{rs, scan.passedBefore()})
		}
		// The test wants the skipped slots passed since the previous visit.
		for i := len(got) - 1; i > 0; i-- {
			got[i].passed -= got[i-1].passed
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: size %d head %d width %d marked %v skip %x: scan %v, seq order %v",
				trial, size, head, width, marked, skip, got, want)
		}
		if got[len(got)-1].slot < 0 {
			if passed := scan.passed; scan.next() != -1 || scan.passed != passed {
				t.Fatalf("trial %d: scan continues past its last set bit", trial)
			}
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
		if want[len(want)-1].passed > 0 && len(want) > 1 {
			skipped++
		}
	}
	if wrapped < 1000 || empty < 1000 || full < 500 || cut < 1000 || skipped < 1000 {
		t.Fatalf("case mix wrapped=%d empty=%d full=%d cut=%d skipped=%d: generator too narrow",
			wrapped, empty, full, cut, skipped)
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
		s.fit(size, 1)
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
		var scan ageScan
		scan.start(s.done, nil, head)
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

// refIssue is the select stage as it was before the queue kept its
// candidates in ROB order and blocked loads parked: every cycle it rebuilds
// the candidate bitset from ReadySlots into ready (with iqSlot mapping a ROB
// slot back to its queue slot) and tries every candidate. It drops the
// parked set first, so each load it tries parks afresh and nothing is passed
// over.
func (m *Machine) refIssue(ready []uint64, iqSlot []int32) {
	m.C.IssueCycleScans += uint64(m.IQ.Len())
	m.IQ.SelectScans += uint64(m.IQ.Len())
	m.resolveStoreAddresses()
	m.scratch.unparkAll()
	clear(ready)
	for _, slot := range m.IQ.ReadySlots() {
		rs := m.IQ.Entry(int(slot)).ROBSlot
		ready[rs>>6] |= 1 << (rs & 63)
		iqSlot[rs] = slot
	}
	var gate storeGate
	var scan ageScan
	scan.start(ready, nil, m.ROB.HeadSlot())
	for issued := 0; issued < m.Cfg.IssueWidth; {
		rs := scan.next()
		if rs < 0 {
			return
		}
		if m.tryIssueEntry(int(iqSlot[rs]), &gate, &scan) {
			issued++
		}
	}
}

// refMachine steps a machine with the reference select: Step's stages in
// Step's order, for a machine with no tracer, sampler or hooks.
type refMachine struct {
	*Machine
	ready  []uint64
	iqSlot []int32
}

func newRefMachine(cfg Config, p *prog.Program) *refMachine {
	m := New(cfg, p)
	return &refMachine{Machine: m, ready: make([]uint64, (m.Cfg.ROBSize+63)/64), iqSlot: make([]int32, m.Cfg.ROBSize)}
}

func (r *refMachine) step() {
	m := r.Machine
	m.cycle++
	m.C.Cycles++
	if m.Ctl.GateActive() {
		m.C.GatedCycles++
	}
	if m.Chaos.RollRevoke() && m.Ctl.ForceRevoke() {
		m.Chaos.CountRevoke()
	}
	m.commit()
	if m.halted {
		return
	}
	m.writeback()
	r.refIssue(r.ready, r.iqSlot)
	m.dispatch()
	m.decode()
	m.fetch()
}

// counterState is every activity counter of a machine and its components,
// comparable with ==.
type counterState struct {
	C                                        Counters
	Ctl                                      core.Stats
	IQ                                       [6]uint64
	LSQ                                      [4]uint64
	RF                                       [4]uint64
	FU                                       [5]uint64
	ROB                                      [2]uint64
	BP                                       [5]uint64
	L1I, L1D, L2                             [3]uint64
	Chaos                                    chaos.Counters
	IQLen, ROBLen, LSQLen, ExecLen, ReadyLen int
}

func countersOf(m *Machine) counterState {
	s := counterState{
		C:   m.C,
		Ctl: m.Ctl.S,
		IQ:  [6]uint64{m.IQ.Dispatches, m.IQ.PartialUpdates, m.IQ.IssueReads, m.IQ.Removals, m.IQ.Collapses, m.IQ.SelectScans},
		LSQ: [4]uint64{m.LSQ.Allocs, m.LSQ.Searches, m.LSQ.Forwards, m.LSQ.ConflictStalls},
		RF:  [4]uint64{m.RF.Reads, m.RF.Writes, m.RF.MapReads, m.RF.Renames},
		FU:  m.FUs.Ops,
		ROB: [2]uint64{m.ROB.Allocs, m.ROB.Commits},
		BP:  [5]uint64{m.BP.Lookups, m.BP.Updates, m.BP.BTBLookups, m.BP.BTBUpdates, m.BP.RASOps},
		L1I: [3]uint64{m.Hier.L1I.Accesses, m.Hier.L1I.Misses, m.Hier.L1I.Writebacks},
		L1D: [3]uint64{m.Hier.L1D.Accesses, m.Hier.L1D.Misses, m.Hier.L1D.Writebacks},
		L2:  [3]uint64{m.Hier.L2.Accesses, m.Hier.L2.Misses, m.Hier.L2.Writebacks},

		IQLen: m.IQ.Len(), ROBLen: m.ROB.Len(), LSQLen: m.LSQ.Len(), ExecLen: len(m.execQ), ReadyLen: len(m.IQ.ReadySlots()),
	}
	if m.Chaos != nil {
		s.Chaos = m.Chaos.C
	}
	return s
}

// parkedCount returns the number of loads select passes over.
func parkedCount(m *Machine) int {
	n := 0
	for _, w := range m.scratch.parked {
		n += bits.OnesCount64(w)
	}
	return n
}

// lockstepSelect steps m with the select stage and ref with the reference
// select until m halts, requiring equal counters after every cycle and equal
// snapshot images at the end. It returns the number of cycles in which some
// load was parked.
func lockstepSelect(t *testing.T, m *Machine, ref *refMachine) int {
	t.Helper()
	parkedCycles := 0
	for !m.Halted() {
		if m.cycle >= 5_000_000 {
			t.Fatalf("no halt after %d cycles", m.cycle)
		}
		stepBoth(t, m, ref)
		if parkedCount(m) > 0 {
			parkedCycles++
		}
	}
	if !ref.Halted() {
		t.Fatal("reference select did not halt with the machine")
	}
	if got, want := m.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatal("final snapshot image differs from the reference select's")
	}
	return parkedCycles
}

// TestSelectMatchesReference steps every kernel at IQ 32 and 256, with reuse
// on and off, plus one chaos run, beside the reference select, which tries
// every candidate every cycle, and requires every counter to be equal after
// every cycle. Under -race, which slows a simulation about 15 times, it
// runs aps at IQ 256 and the chaos run only; plain `go test` runs them all.
func TestSelectMatchesReference(t *testing.T) {
	type cell struct {
		kernel string
		iq     int
		reuse  bool
		chaos  int64
	}
	var cells []cell
	for _, k := range workloads.All() {
		for _, iq := range []int{32, 256} {
			for _, reuse := range []bool{false, true} {
				if !raceEnabled || k.Name == "aps" && iq == 256 {
					cells = append(cells, cell{k.Name, iq, reuse, 0})
				}
			}
		}
	}
	cells = append(cells, cell{"aps", 64, true, 7})
	var parked atomic.Int64
	t.Run("cells", func(t *testing.T) {
		for _, c := range cells {
			t.Run(fmt.Sprintf("%s/iq%d/reuse=%v/chaos=%d", c.kernel, c.iq, c.reuse, c.chaos), func(t *testing.T) {
				t.Parallel()
				k, ok := workloads.ByName(c.kernel)
				if !ok {
					t.Fatalf("no kernel %s", c.kernel)
				}
				p, _, err := compiler.Compile(k.Prog)
				if err != nil {
					t.Fatal(err)
				}
				cfg := BaselineConfig().WithIQSize(c.iq)
				cfg.Reuse.Enabled = c.reuse
				if c.chaos != 0 {
					cfg.Chaos = chaos.DefaultConfig(c.chaos)
				}
				n := lockstepSelect(t, New(cfg, p), newRefMachine(cfg, p))
				parked.Add(int64(n))
			})
		}
	})
	if parked.Load() == 0 {
		t.Error("no load was ever parked: the comparison never exercised parking")
	}
}

// parkedOn returns the LSQ slot each parked load waits on, by ROB slot.
func parkedOn(m *Machine) map[int]int {
	on := make(map[int]int)
	for store, rs := range m.scratch.parkHead {
		for ; rs >= 0; rs = m.scratch.parkNext[rs] {
			on[int(rs)] = store
		}
	}
	return on
}

// stepBoth steps m and its reference machine by one cycle and requires
// equal counters.
func stepBoth(t *testing.T, m *Machine, ref *refMachine) {
	t.Helper()
	m.Step()
	ref.step()
	if got, want := countersOf(m), countersOf(ref.Machine); got != want {
		t.Fatalf("cycle %d: counters differ from the reference select\n got  %+v\n want %+v", m.cycle, got, want)
	}
}

// TestParkedLoadForwardsInStoreIssuePass parks a load on an older store to
// the same word whose data waits on a divide. The load must not search
// again while it waits, and in the pass in which the store finally issues
// the load must be unparked, visited and forwarded the store's data.
func TestParkedLoadForwardsInStoreIssuePass(t *testing.T) {
	p := asm.MustAssemble(`
	.data
buf:	.space 16
	.text
	la   $r5, buf
	li   $r6, 100
	li   $r7, 7
	divq $r8, $r6, $r7
	sw   $r8, 0($r5)
	lw   $r9, 0($r5)
	halt
	`)
	cfg := BaselineConfig()
	m, ref := New(cfg, p), newRefMachine(cfg, p)
	parkedCycles, searchesWhileParked := 0, uint64(0)
	forwardedAt := uint64(0)
	for !m.Halted() && m.cycle < 10_000 {
		parked, forwards, searches := parkedCount(m), m.LSQ.Forwards, m.LSQ.Searches
		memOps := m.FUs.Ops[fu.MemPort]
		stepBoth(t, m, ref)
		if parked > 0 && parkedCount(m) > 0 {
			parkedCycles++
			searchesWhileParked += m.LSQ.Searches - searches
		}
		if m.LSQ.Forwards > forwards {
			forwardedAt = m.cycle
			if parked == 0 {
				t.Errorf("cycle %d: the load forwarded without having been parked", m.cycle)
			}
			if got := m.FUs.Ops[fu.MemPort] - memOps; got != 2 {
				t.Errorf("cycle %d: %d memory operations issued with the forward, want the store and the load", m.cycle, got)
			}
		}
	}
	if forwardedAt == 0 || parkedCycles < 5 {
		t.Fatalf("forwarded at cycle %d after %d parked cycles: the scenario did not occur", forwardedAt, parkedCycles)
	}
	if got := m.ArchInt(9); got != 14 {
		t.Errorf("r9 = %d, want 14", got)
	}
	// The parked load is charged a search every cycle, as the reference
	// select's failed attempt was.
	if searchesWhileParked != uint64(parkedCycles) {
		t.Errorf("%d searches charged over %d parked cycles", searchesWhileParked, parkedCycles)
	}
}

// TestCommitReleasesParkedLoad parks a word load on an older byte store to
// the same address, which issues at once but cannot forward, and commits
// only after a divide ahead of it. The load must stay parked on that store
// until the store commits, and then issue, reading memory.
func TestCommitReleasesParkedLoad(t *testing.T) {
	p := asm.MustAssemble(`
	.data
buf:	.space 16
	.text
	la   $r5, buf
	li   $r6, 100
	li   $r7, 7
	li   $r8, 5
	divq $r10, $r6, $r7
	sb   $r8, 0($r5)
	lw   $r9, 0($r5)
	halt
	`)
	cfg := BaselineConfig()
	m, ref := New(cfg, p), newRefMachine(cfg, p)
	parkedCycles, released := 0, false
	for !m.Halted() && m.cycle < 10_000 {
		before := parkedOn(m)
		stores, loadOps := m.C.StoresCommitted, m.FUs.Ops[fu.MemPort]
		stepBoth(t, m, ref)
		after := parkedOn(m)
		if len(before) > 0 && len(after) > 0 {
			parkedCycles++
			if !maps.Equal(before, after) {
				t.Fatalf("cycle %d: parked set moved from %v to %v with no store issued or committed", m.cycle, before, after)
			}
			if m.C.StoresCommitted != stores {
				t.Fatalf("cycle %d: the store committed but its load stayed parked", m.cycle)
			}
		}
		if len(before) > 0 && len(after) == 0 {
			if m.C.StoresCommitted != stores+1 || m.FUs.Ops[fu.MemPort] != loadOps+1 {
				t.Fatalf("cycle %d: the load left the parked set without its store committing and the load issuing", m.cycle)
			}
			released = true
		}
	}
	if !released || parkedCycles < 5 {
		t.Fatalf("released=%v after %d parked cycles: the scenario did not occur", released, parkedCycles)
	}
	if got := m.ArchInt(9); got != 5 {
		t.Errorf("r9 = %d, want 5", got)
	}
}

// TestRecoveryClearsParkedLoads runs a loop whose exit mispredicts while a
// wrong-path load is parked on a wrong-path store. The recovery must clear
// the parked set: after it, every parked ROB slot holds a live ready load.
func TestRecoveryClearsParkedLoads(t *testing.T) {
	p := asm.MustAssemble(`
	.data
buf:	.space 16
	.text
	la   $r5, buf
	li   $r3, 6
	li   $r6, 100
	li   $r7, 7
	li   $r12, 1
loop:	divq $r11, $r3, $r12
	divq $r8, $r6, $r7
	sw   $r8, 0($r5)
	lw   $r9, 0($r5)
	addi $r3, $r3, -1
	bne  $r11, $r12, loop
	halt
	`)
	cfg := BaselineConfig()
	m, ref := New(cfg, p), newRefMachine(cfg, p)
	squashed := 0
	for !m.Halted() && m.cycle < 100_000 {
		seqOf := make(map[int]uint64)
		for rs := range parkedOn(m) {
			seqOf[rs] = m.IQ.Entry(m.IQ.ReadySlotAt(rs)).Seq
		}
		mispredicts := m.C.Mispredicts
		stepBoth(t, m, ref)
		if m.C.Mispredicts == mispredicts {
			continue
		}
		for rs, seq := range seqOf {
			if m.ROB.Get(rs).Seq != seq || m.ROB.Len() <= (rs-m.ROB.HeadSlot()+m.ROB.Size())%m.ROB.Size() {
				squashed++
			}
		}
		for rs := range parkedOn(m) {
			if age := (rs - m.ROB.HeadSlot() + m.ROB.Size()) % m.ROB.Size(); age >= m.ROB.Len() ||
				m.IQ.ReadyByROB()[rs>>6]&(1<<(rs&63)) == 0 {
				t.Fatalf("cycle %d: ROB slot %d is still parked after the recovery but holds no live ready load", m.cycle, rs)
			}
		}
	}
	if !m.Halted() || squashed == 0 {
		t.Fatalf("halted=%v, %d parked loads squashed: the scenario did not occur", m.Halted(), squashed)
	}
}

// TestRestoreStartsUnparked snapshots a kernel mid-run while loads are
// parked and resumes it: the restored machine starts with no load parked,
// and from there its every counter matches the uninterrupted run's each
// cycle, because an unparked load searches again to the same answer and
// the same charges.
func TestRestoreStartsUnparked(t *testing.T) {
	k, _ := workloads.ByName("aps")
	p, _, err := compiler.Compile(k.Prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := BaselineConfig().WithIQSize(256)
	m := New(cfg, p)
	for m.cycle < 20_000 || parkedCount(m) < 2 {
		if m.Halted() || m.cycle > 200_000 {
			t.Fatalf("no cycle with parked loads by cycle %d", m.cycle)
		}
		m.Step()
	}
	r, err := Resume(cfg, p, m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if n := parkedCount(r); n != 0 || len(parkedOn(r)) != 0 {
		t.Fatalf("restored machine starts with %d loads parked", n)
	}
	t.Logf("restored at cycle %d with %d loads parked", m.cycle, parkedCount(m))
	for !m.Halted() {
		m.Step()
		r.Step()
		if got, want := countersOf(r), countersOf(m); got != want {
			t.Fatalf("cycle %d: restored counters %+v, uninterrupted %+v", m.cycle, got, want)
		}
	}
	if !r.Halted() || !reflect.DeepEqual(r.Snapshot(), m.Snapshot()) {
		t.Fatal("restored run ended in a different state")
	}
}
