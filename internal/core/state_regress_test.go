package core

import (
	"testing"

	"reuseiq/internal/isa"
)

// TestControllerStateRoundTripsWraps pins a statecov finding: the wrap-around
// counter is live state, read through Wraps(), but ExportState/ImportState
// once silently dropped it, so a controller restored from a checkpoint
// restarted the count at zero. The counter must survive the round trip exactly.
func TestControllerStateRoundTripsWraps(t *testing.T) {
	c, q := newCtl(16, 8)
	head := uint32(base)
	tail := uint32(base + 4*4)
	c.OnDispatch(tail, branchAt(tail, head), true, head)
	seq := uint64(0)
	for c.State() == Buffering {
		for pc := head; pc <= tail; pc += 4 {
			in := isa.Inst{Op: isa.OpADDI, Rt: 2, Rs: 2, Imm: 1}
			taken := pc == tail
			info := c.OnDispatch(pc, in, taken, head)
			seq++
			q.Dispatch(Entry{Seq: seq, PC: pc, Inst: in, Classified: info.Classify})
			if info.Promote {
				break
			}
		}
	}
	q.Walk(func(slot int, e *Entry) {
		if e.Classified {
			q.MarkIssued(slot)
		}
	})
	// Consume one full pass over the classified entries so the pointer wraps.
	c.ReusableEntries(4)
	c.ConsumeReused(4)
	c.ConsumeReused(11)
	if c.Wraps() == 0 {
		t.Fatal("driving a full reuse pass did not wrap the pointer")
	}

	st := c.ExportState()
	if st.Wraps != c.Wraps() {
		t.Fatalf("ExportState dropped the wrap counter: image %d, live %d", st.Wraps, c.Wraps())
	}
	fresh := NewController(Config{Enabled: true, NBLTSize: 8}, q)
	if err := fresh.ImportState(st); err != nil {
		t.Fatal(err)
	}
	if fresh.Wraps() != c.Wraps() {
		t.Fatalf("ImportState dropped the wrap counter: restored %d, want %d", fresh.Wraps(), c.Wraps())
	}
}
