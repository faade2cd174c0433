package pipeline

import (
	"strings"
	"testing"

	"reuseiq/internal/asm"
	"reuseiq/internal/isa"
	"reuseiq/internal/prog"
	"reuseiq/internal/telemetry"
)

// Edge-case and failure-injection tests for the pipeline engine.

func TestColdCacheStallsThenRuns(t *testing.T) {
	p := asm.MustAssemble("li $r2, 1\nhalt")
	m := New(BaselineConfig(), p)
	// The very first fetch misses ITLB + L1I + L2 and goes to memory.
	for i := 0; i < 3 && !m.Halted(); i++ {
		m.Step()
	}
	if m.C.Commits != 0 {
		t.Fatal("committed before the cold miss resolved")
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Cold-start latency: ITLB(3) + L1(1) + L2(8) + memory(80 + 7*8).
	if m.C.Cycles < 140 {
		t.Errorf("completed in %d cycles; cold-miss latency unmodeled?", m.C.Cycles)
	}
	if m.Hier.L1I.Misses == 0 || m.Hier.L2.Misses == 0 {
		t.Error("no cache misses recorded")
	}
}

func TestPhysicalRegisterPressure(t *testing.T) {
	// A config with barely more physical than architectural registers
	// must still make forward progress (dispatch stalls, then commits
	// release registers).
	var b strings.Builder
	b.WriteString("\tli $r2, 0\n")
	for i := 0; i < 100; i++ {
		b.WriteString("\taddi $r2, $r2, 1\n")
	}
	b.WriteString("\thalt\n")
	p := asm.MustAssemble(b.String())
	cfg := BaselineConfig()
	cfg.IntPhysRegs = 36 // 32 arch + 4 in flight
	cfg.FPPhysRegs = 36
	m := runPipe(t, cfg, p)
	if m.ArchInt(2) != 100 {
		t.Errorf("r2 = %d", m.ArchInt(2))
	}
	if m.C.DispatchStallRegs == 0 {
		t.Error("no rename-register stalls under extreme pressure")
	}
}

func TestTinyROBAndLSQ(t *testing.T) {
	p := asm.MustAssemble(`
	.data
buf:	.space 64
	.text
	la  $r5, buf
	li  $r3, 8
l:	sw  $r3, 0($r5)
	lw  $r4, 0($r5)
	addi $r5, $r5, 4
	addi $r3, $r3, -1
	bne $r3, $zero, l
	halt
	`)
	cfg := BaselineConfig()
	cfg.IQSize = 4
	cfg.ROBSize = 4
	cfg.LSQSize = 2
	m := runPipe(t, cfg, p)
	if m.ArchInt(4) != 1 {
		t.Errorf("r4 = %d", m.ArchInt(4))
	}
	if m.C.DispatchStallROB == 0 && m.C.DispatchStallIQ == 0 && m.C.DispatchStallLSQ == 0 {
		t.Error("no structural stalls with 4-entry window")
	}
}

func TestDeepMispredictChains(t *testing.T) {
	// Data-dependent branches with effectively random directions force
	// constant recovery; results must stay exact.
	m := differential(t, `
	li   $r2, 0        # acc
	li   $r4, 12345    # lcg state
	li   $r3, 500
loop:	li   $r5, 1103515245
	mul  $r4, $r4, $r5
	addi $r4, $r4, 12345
	srl  $r6, $r4, 16
	andi $r6, $r6, 1
	beq  $r6, $zero, even
	addi $r2, $r2, 3
	j    next
even:	addi $r2, $r2, 5
next:	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
	`)
	if m.C.Mispredicts < 50 {
		t.Errorf("only %d mispredicts; branch pattern not hostile enough", m.C.Mispredicts)
	}
}

func TestJALRIndirectCalls(t *testing.T) {
	m := differential(t, `
main:	la   $r5, fn1
	li   $r3, 40
loop:	jalr $ra, $r5
	la   $r6, fn2
	and  $at, $r3, $r3    # keep $at defined
	andi $r7, $r3, 1
	beq  $r7, $zero, pick1
	move $r5, $r6
	j    go
pick1:	la   $r5, fn1
go:	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
fn1:	addi $r2, $r2, 1
	jr   $ra
fn2:	addi $r2, $r2, 100
	jr   $ra
	`)
	if m.ArchInt(2) == 0 {
		t.Error("indirect calls never executed")
	}
}

func TestFetchPastTextEndOnWrongPath(t *testing.T) {
	// A branch at the end of text predicted taken toward the last
	// instruction; wrong-path fetch runs off the end and must stall
	// harmlessly until recovery.
	m := differential(t, `
	li   $r3, 30
l:	addi $r3, $r3, -1
	bne  $r3, $zero, l
	halt
	`)
	_ = m
}

func TestStoreCommitWritesDCache(t *testing.T) {
	p := asm.MustAssemble(`
	.data
v:	.space 4
	.text
	la $r5, v
	li $r2, 7
	sw $r2, 0($r5)
	halt
	`)
	m := runPipe(t, BaselineConfig(), p)
	if m.C.StoreCommitAccesses != 1 {
		t.Errorf("store commit accesses = %d", m.C.StoreCommitAccesses)
	}
	if m.Mem.ReadI32(p.Symbols["v"]) != 7 {
		t.Error("store value lost")
	}
}

func TestWrongPathStoreNeverCommits(t *testing.T) {
	// The store sits on the not-taken path of a branch that is always
	// taken but predicted not-taken at first: speculative execution must
	// not let it reach memory.
	m := differential(t, `
	.data
guard:	.word 0
	.text
	la   $r5, guard
	li   $r2, 1
	li   $r3, 99
	bne  $r2, $zero, skip
	sw   $r3, 0($r5)     # wrong path only
skip:	lw   $r4, 0($r5)
	halt
	`)
	if m.ArchInt(4) != 0 {
		t.Fatalf("wrong-path store leaked: guard = %d", m.ArchInt(4))
	}
	if m.Mem.ReadI32(m.Prog.Symbols["guard"]) != 0 {
		t.Fatal("memory corrupted by wrong-path store")
	}
}

func TestGatedFractionNeverExceedsOne(t *testing.T) {
	p := asm.MustAssemble(`
	li $r3, 5000
l:	addi $r3, $r3, -1
	bne $r3, $zero, l
	halt
	`)
	m := runPipe(t, DefaultConfig(), p)
	if g := m.GatedFraction(); g < 0 || g > 1 {
		t.Errorf("gated fraction = %v", g)
	}
	if m.C.GatedCycles > m.C.Cycles {
		t.Error("gated cycles exceed total cycles")
	}
}

func TestCounterConsistency(t *testing.T) {
	p := asm.MustAssemble(`
	.data
a:	.space 400
	.text
	la   $r5, a
	li   $r3, 100
l:	sw   $r3, 0($r5)
	lw   $r4, 0($r5)
	addi $r5, $r5, 4
	addi $r3, $r3, -1
	bne  $r3, $zero, l
	halt
	`)
	m := runPipe(t, DefaultConfig(), p)
	// Commit counts must match between ROB and pipeline counters.
	if m.ROB.Commits != m.C.Commits {
		t.Errorf("ROB commits %d vs counter %d", m.ROB.Commits, m.C.Commits)
	}
	// Every committed load/store passed through the LSQ.
	if m.LSQ.Allocs < m.C.LoadsCommitted+m.C.StoresCommitted {
		t.Errorf("LSQ allocs %d < committed mem ops %d",
			m.LSQ.Allocs, m.C.LoadsCommitted+m.C.StoresCommitted)
	}
	// Front-end renames + reuse renames cover all commits.
	if m.C.FrontRenames+m.C.ReuseRenames < m.C.Commits {
		t.Errorf("renames %d+%d < commits %d", m.C.FrontRenames, m.C.ReuseRenames, m.C.Commits)
	}
}

func TestHaltAtEntry(t *testing.T) {
	p := asm.MustAssemble("halt")
	m := runPipe(t, DefaultConfig(), p)
	if m.C.Commits != 0 {
		t.Errorf("commits = %d for a lone halt", m.C.Commits)
	}
	if !m.Halted() {
		t.Error("not halted")
	}
}

func TestSPInitialized(t *testing.T) {
	p := asm.MustAssemble(`
	addi $sp, $sp, -4
	sw   $sp, 0($sp)
	lw   $r2, 0($sp)
	halt
	`)
	m := runPipe(t, BaselineConfig(), p)
	want := int32(prog.StackTop) - 4
	if m.ArchInt(isa.RegSP) != want || m.ArchInt(2) != want {
		t.Errorf("sp = %d r2 = %d, want %d", m.ArchInt(isa.RegSP), m.ArchInt(2), want)
	}
}

func TestHalfwordForwardingUnderReuse(t *testing.T) {
	m := differential(t, `
	.data
buf:	.space 8
	.text
	la   $r5, buf
	li   $r3, 400
	li   $r2, 0
l:	addi $r2, $r2, 3
	sh   $r2, 0($r5)
	lh   $r4, 0($r5)
	lhu  $r6, 0($r5)
	addi $r3, $r3, -1
	bne  $r3, $zero, l
	halt
	`)
	if m.ArchInt(4) != 1200 || m.ArchInt(6) != 1200 {
		t.Errorf("lh=%d lhu=%d", m.ArchInt(4), m.ArchInt(6))
	}
	if m.Ctl.S.Promotions == 0 {
		t.Error("halfword loop never promoted")
	}
}

// TestStoreIssueUngatesYoungerLoad pins the select pass's store-address
// bound: when the oldest unresolved store issues (publishing its address),
// a younger ready load later in the same pass must issue in that cycle, not
// one cycle later. Five stores share a base produced by a divide; address
// generation resolves only IssueWidth (four) pending stores per cycle, so
// the fifth store, whose data is ready, resolves its address by issuing.
// The load between the fourth and fifth stores reads the bound first in the
// pass and then waits on the first store's data, leaving a memory port free.
func TestStoreIssueUngatesYoungerLoad(t *testing.T) {
	p := asm.MustAssemble(`
	.data
a:	.space 64
	.text
	la   $r5, a
	li   $r11, 1
	li   $r9, 7
	divq $r6, $r5, $r11
	divq $r7, $r6, $r11
	sw   $r7, 0($r6)
	sw   $r7, 4($r6)
	sw   $r7, 8($r6)
	sw   $r7, 12($r6)
	lw   $r10, 0($r6)
	sw   $r9, 16($r6)
	lw   $r8, 32($r5)
	halt
	`)
	watched := map[uint32]string{}
	for i, in := range p.Text {
		pc := prog.Addr(i)
		d := strings.Join(strings.Fields(in.Disasm(pc)), " ")
		for _, w := range []string{"sw $r9", "lw $r8"} {
			if strings.HasPrefix(d, w) {
				watched[pc] = w
			}
		}
	}
	m := New(BaselineConfig(), p)
	tel := telemetry.New(telemetry.Config{})
	m.AttachTelemetry(tel)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	issuedAt := map[string]uint64{}
	for _, e := range tel.Events() {
		if w, ok := watched[e.PC]; ok && e.Kind == telemetry.EvIssue {
			issuedAt[w] = e.Cycle
		}
	}
	st, ld := issuedAt["sw $r9"], issuedAt["lw $r8"]
	if st == 0 || ld == 0 {
		t.Fatalf("issue cycles not observed: %v", issuedAt)
	}
	if ld != st {
		t.Fatalf("load issued at cycle %d, the store that gated it at %d: the bound was not refreshed when the store issued", ld, st)
	}
}
