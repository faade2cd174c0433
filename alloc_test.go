//go:build !race

// testing.AllocsPerRun is noisy under the race detector, so this file is
// excluded from -race runs; plain `go test` exercises it.

package reuseiq

import (
	"testing"

	"reuseiq/internal/asm"
	"reuseiq/internal/pipeline"
)

// TestSteadyStateZeroAllocs pins the tentpole property of the slot-based
// simulator core: once a machine is warmed up (scratch buffers sized, the
// loop captured and the front end gated), stepping it allocates nothing.
// Any regression here — a map in a stage, a slice that escapes, a
// fmt.Sprintf on the hot path — fails the test before it shows up as a
// throughput loss in BenchmarkSimulatorSpeed.
func TestSteadyStateZeroAllocs(t *testing.T) {
	p := asm.MustAssemble(`
	li   $r2, 0
	li   $r3, 2000000
loop:	add  $r2, $r2, $r3
	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
	`)
	m := pipeline.New(pipeline.DefaultConfig(), p)
	defer m.Release()
	warmUp(t, m)
	if avg := stepAllocs(t, m); avg != 0 {
		t.Errorf("steady-state Step allocates %.3f objects/cycle, want 0", avg)
	}
}

// TestSteadyStateZeroAllocsMemory extends the property to the memory path
// on the paper's largest queue (IQ 256, 128-entry LSQ). The reused loop
// keeps the LSQ nearly full and dozens of loads ready but gated: one store's
// address waits on a 20-cycle divide chain, and one load forwards from the
// store just before it. Stepping it must still allocate nothing. Addresses
// stay inside one small array, so no memory page is first touched after
// warm-up.
func TestSteadyStateZeroAllocsMemory(t *testing.T) {
	p := asm.MustAssemble(`
	.data
a:	.space 1024
	.text
	la   $r5, a
	la   $r10, a
	li   $r11, 1
	li   $r3, 2000000
	li   $r4, 0
loop:	add  $r6, $r5, $r4
	lw   $r2, 0($r6)
	lw   $r8, 256($r6)
	addi $r2, $r2, 1
	sw   $r2, 0($r6)
	lw   $r7, 0($r6)
	divq $r10, $r10, $r11
	sw   $r8, 768($r10)
	sw   $r7, 4($r6)
	addi $r4, $r4, 8
	andi $r4, $r4, 248
	addi $r3, $r3, -1
	bne  $r3, $zero, loop
	halt
	`)
	m := pipeline.New(pipeline.DefaultConfig().WithIQSize(256), p)
	defer m.Release()
	warmUp(t, m)
	forwards, stalls := m.LSQ.Forwards, m.LSQ.ConflictStalls
	if avg := stepAllocs(t, m); avg != 0 {
		t.Errorf("steady-state Step allocates %.3f objects/cycle on the memory path, want 0", avg)
	}
	if m.LSQ.Forwards == forwards || m.LSQ.ConflictStalls == stalls {
		t.Fatalf("forwards %d→%d, conflict stalls %d→%d: the measured cycles did not exercise forwarding and gating",
			forwards, m.LSQ.Forwards, stalls, m.LSQ.ConflictStalls)
	}
}

// warmUp steps m for 5000 cycles and requires the loop to have been
// captured with the front end gated.
func warmUp(t *testing.T, m *pipeline.Machine) {
	t.Helper()
	for i := 0; i < 5000 && !m.Halted(); i++ {
		m.Step()
	}
	if m.Halted() {
		t.Fatal("machine halted during warmup; loop too short for the measurement")
	}
	if m.GatedFraction() == 0 {
		t.Fatal("front end never gated during warmup; reuse did not engage")
	}
}

// stepAllocs returns the average allocations of 5000 further Steps.
func stepAllocs(t *testing.T, m *pipeline.Machine) float64 {
	t.Helper()
	avg := testing.AllocsPerRun(5000, func() { m.Step() })
	if m.Halted() {
		t.Fatal("machine halted during measurement; loop too short")
	}
	return avg
}
