package lockstep

import (
	"strings"
	"testing"

	"reuseiq/internal/asm"
	"reuseiq/internal/core"
	"reuseiq/internal/isa"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/progen"
	"reuseiq/internal/rob"
)

// A clean run must pass the oracle and the invariant checker, with every
// commit cross-checked.
func TestCleanRunVerifies(t *testing.T) {
	p, err := asm.Assemble(progen.Generate(1, progen.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	m := pipeline.New(pipeline.DefaultConfig(), p)
	o := Attach(m, p)
	if err := m.Run(); err != nil {
		t.Fatalf("verified run failed: %v", err)
	}
	// The oracle also checks the final HALT, which the pipeline's commit
	// counter excludes.
	if o.Commits != m.C.Commits+1 {
		t.Fatalf("oracle checked %d commits, pipeline made %d", o.Commits, m.C.Commits)
	}
}

// Running the pipeline against a golden model for a *different* program must
// be caught at the first divergent commit, with cycle, seq, disassembly and
// RIQ state in the report.
func TestDivergenceIsLocalized(t *testing.T) {
	run := `
	.text
main:	addi $r2, $zero, 7
	addi $r3, $zero, 1
	halt
	`
	golden := `
	.text
main:	addi $r2, $zero, 7
	addi $r3, $zero, 2
	halt
	`
	pRun := asm.MustAssemble(run)
	pGold := asm.MustAssemble(golden)
	m := pipeline.New(pipeline.DefaultConfig(), pRun)
	AttachOracle(m, pGold)
	err := m.Run()
	if err == nil {
		t.Fatal("divergent programs verified clean")
	}
	msg := err.Error()
	for _, want := range []string{"first divergence", "seq 2", "addi", "riq=", "oracle 2"} {
		if !strings.Contains(msg, want) {
			t.Errorf("divergence report %q missing %q", msg, want)
		}
	}
}

// The oracle must also catch a wrong store (address and value travel through
// the LSQ, a separate path from register writes).
func TestStoreDivergence(t *testing.T) {
	run := `
	.data
buf:	.space 64
	.text
main:	la   $r2, buf
	addi $r3, $zero, 5
	sw   $r3, 4($r2)
	halt
	`
	golden := strings.Replace(run, "sw   $r3, 4($r2)", "sw   $r3, 8($r2)", 1)
	pRun := asm.MustAssemble(run)
	pGold := asm.MustAssemble(golden)
	m := pipeline.New(pipeline.DefaultConfig(), pRun)
	AttachOracle(m, pGold)
	err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "store to") {
		t.Fatalf("store divergence not caught: %v", err)
	}
}

// Corrupting the ROB must trip the sequence-monotonicity invariant.
func TestCheckerCatchesROBCorruption(t *testing.T) {
	p := asm.MustAssemble("\t.text\nmain:\thalt\n")
	m := pipeline.New(pipeline.DefaultConfig(), p)
	k := AttachChecker(m)
	in := isa.Inst{Op: isa.OpADD, Rd: 2}
	m.ROB.Alloc(rob.Entry{Seq: 5, Inst: in})
	m.ROB.Alloc(rob.Entry{Seq: 3, Inst: in})
	err := k.Check()
	if err == nil || !strings.Contains(err.Error(), "ROB seq not monotonic") {
		t.Fatalf("ROB corruption not caught: %v", err)
	}
}

// Pointing an unissued issue-queue entry at another ROB slot must trip the
// invariant the age-ordered select rests on.
func TestCheckerCatchesStaleROBSlot(t *testing.T) {
	p := asm.MustAssemble(`
	li   $r3, 200
l:	mul  $r4, $r3, $r3
	add  $r5, $r4, $r4
	addi $r3, $r3, -1
	bne  $r3, $zero, l
	halt
	`)
	m := pipeline.New(pipeline.DefaultConfig(), p)
	c := AttachChecker(m)
	for cycle := 0; cycle < 2000; cycle++ {
		m.Step()
		if err := c.Check(); err != nil {
			t.Fatalf("clean run flagged at cycle %d: %v", cycle, err)
		}
		victim := -1
		m.IQ.Walk(func(slot int, e *core.Entry) {
			if victim < 0 && !e.Issued {
				victim = slot
			}
		})
		if victim < 0 {
			continue
		}
		e := m.IQ.Entry(victim)
		e.ROBSlot = (e.ROBSlot + 1) % m.ROB.Size()
		err := c.Check()
		if err == nil || !strings.Contains(err.Error(), "does not hold its live instance") {
			t.Fatalf("stale ROB slot not caught: %v", err)
		}
		return
	}
	t.Fatal("no unissued entry to corrupt in 2000 cycles")
}

// The full paper workloads must verify clean under oracle + checker.
func TestWorkloadsVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("long verification run")
	}
	for _, cfg := range []pipeline.Config{pipeline.BaselineConfig(), pipeline.DefaultConfig()} {
		for seed := int64(10); seed < 14; seed++ {
			p, err := asm.Assemble(progen.Generate(seed, progen.Config{
				MaxDepth: 3, MaxBlock: 10, MaxTrip: 15, Procs: 2,
			}))
			if err != nil {
				t.Fatal(err)
			}
			m := pipeline.New(cfg, p)
			Attach(m, p)
			if err := m.Run(); err != nil {
				t.Fatalf("seed %d reuse=%v: %v", seed, cfg.Reuse.Enabled, err)
			}
		}
	}
}
