package fu

import (
	"testing"

	"reuseiq/internal/isa"
)

func TestTimingTable(t *testing.T) {
	cases := []struct {
		op   isa.Op
		kind Kind
		lat  int
		pipe bool
	}{
		{isa.OpADD, IntALU, 1, true},
		{isa.OpBNE, IntALU, 1, true},
		{isa.OpMUL, IntMul, 3, true},
		{isa.OpDIVQ, IntMul, 20, false},
		{isa.OpREM, IntMul, 20, false},
		{isa.OpADDD, FPALU, 2, true},
		{isa.OpCVTIF, FPALU, 2, true},
		{isa.OpMULD, FPMul, 4, true},
		{isa.OpDIVD, FPMul, 12, false},
		{isa.OpLW, MemPort, 1, true},
		{isa.OpSW, MemPort, 1, true},
	}
	for _, c := range cases {
		got := Timing(c.op)
		if got.Kind != c.kind || got.Latency != c.lat || got.Pipelined != c.pipe {
			t.Errorf("Timing(%v) = %+v, want {%v %d %v}", c.op, got, c.kind, c.lat, c.pipe)
		}
	}
}

func TestPipelinedThroughput(t *testing.T) {
	p := NewPool(Config{NumIntALU: 1, NumIntMul: 1, NumFPALU: 1, NumFPMul: 1, NumMemPort: 1})
	// One ALU accepts one op per cycle.
	if _, ok := tryIssue(p, isa.OpADD, 10); !ok {
		t.Fatal("first issue failed")
	}
	if _, ok := tryIssue(p, isa.OpADD, 10); ok {
		t.Fatal("second issue in the same cycle succeeded with one unit")
	}
	if _, ok := tryIssue(p, isa.OpADD, 11); !ok {
		t.Fatal("pipelined unit did not accept next cycle")
	}
}

func TestUnpipelinedOccupancy(t *testing.T) {
	p := NewPool(Config{NumIntALU: 1, NumIntMul: 1, NumFPALU: 1, NumFPMul: 1, NumMemPort: 1})
	lat, ok := tryIssue(p, isa.OpDIVQ, 5)
	if !ok || lat != 20 {
		t.Fatalf("divq issue: lat=%d ok=%v", lat, ok)
	}
	// Occupied until cycle 25.
	if _, ok := tryIssue(p, isa.OpMUL, 24); ok {
		t.Fatal("multiplier free during divide")
	}
	if _, ok := tryIssue(p, isa.OpMUL, 25); !ok {
		t.Fatal("multiplier not free after divide")
	}
}

func TestMultipleUnits(t *testing.T) {
	p := NewPool(DefaultConfig()) // 4 IALUs
	n := 0
	for i := 0; i < 6; i++ {
		if _, ok := tryIssue(p, isa.OpADD, 1); ok {
			n++
		}
	}
	if n != 4 {
		t.Errorf("issued %d ALU ops in one cycle, want 4", n)
	}
}

func TestFPDivSharesFPMul(t *testing.T) {
	p := NewPool(DefaultConfig()) // 1 FPMul
	if _, ok := tryIssue(p, isa.OpDIVD, 0); !ok {
		t.Fatal("div.d issue failed")
	}
	if _, ok := tryIssue(p, isa.OpMULD, 3); ok {
		t.Fatal("mul.d issued while div.d occupies the unit")
	}
}

func TestAvailableDoesNotBook(t *testing.T) {
	p := NewPool(Config{NumIntALU: 1, NumIntMul: 1, NumFPALU: 1, NumFPMul: 1, NumMemPort: 1})
	if p.Free(IntALU, 0) != 0 || p.Free(IntALU, 0) != 0 {
		t.Fatal("Free changed state")
	}
	tryIssue(p, isa.OpADD, 0)
	if p.Free(IntALU, 0) != -1 {
		t.Fatal("Free ignores booking")
	}
}

func TestOpsCounter(t *testing.T) {
	p := NewPool(DefaultConfig())
	tryIssue(p, isa.OpADD, 0)
	tryIssue(p, isa.OpMULD, 0)
	tryIssue(p, isa.OpLW, 0)
	if p.Ops[IntALU] != 1 || p.Ops[FPMul] != 1 || p.Ops[MemPort] != 1 {
		t.Errorf("ops = %v", p.Ops)
	}
}

// tryIssue books op on a free unit at cycle now, the way the issue stage
// does, and returns its result latency.
func tryIssue(p *Pool, op isa.Op, now uint64) (int, bool) {
	t := Timing(op)
	u := p.Free(t.Kind, now)
	if u < 0 {
		return 0, false
	}
	p.Book(&t, u, now)
	return t.Latency, true
}
