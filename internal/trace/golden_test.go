package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenRecords is a deterministic scenario exercising every Render
// feature: a normal instruction, a long-latency one, a reused instance, a
// squashed instruction, one still in flight when the recording ended, and a
// disassembly long enough to be truncated.
func goldenRecords() []InstRecord {
	return []InstRecord{
		{Seq: 10, PC: 0x400000, Disasm: "li $r2, 7", Dispatch: 100, Issue: 101, Complete: 102, Commit: 103},
		{Seq: 11, PC: 0x400004, Disasm: "mul $r6, $r2, $r3", Dispatch: 100, Issue: 103, Complete: 110, Commit: 111},
		{Seq: 12, PC: 0x400008, Disasm: "add $r4, $r2, $r3", Reused: true, Dispatch: 101, Issue: 102, Complete: 103, Commit: 112},
		{Seq: 13, PC: 0x40000c, Disasm: "bne $r3, $zero, loop", Dispatch: 101, Issue: 104, Squashed: true},
		{Seq: 14, PC: 0x400010, Disasm: "this disassembly is much too long to fit", Dispatch: 102},
	}
}

func TestRenderGolden(t *testing.T) {
	var buf bytes.Buffer
	Render(&buf, goldenRecords())

	path := filepath.Join("testdata", "render.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/trace -update` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Render output drifted from %s (rerun with -update if intentional)\ngot:\n%s\nwant:\n%s",
			path, buf.Bytes(), want)
	}
}

func TestRenderGoldenStats(t *testing.T) {
	// Pin the Stats contract for the same scenario: 3 committed (squashed and
	// never-committed excluded), waits 1+3+1 = 5, lifetimes 3+11+11 = 25.
	wait, life, n := Stats(goldenRecords())
	if n != 3 {
		t.Fatalf("committed = %d, want 3", n)
	}
	if want := 5.0 / 3; wait != want {
		t.Errorf("avg wait = %f, want %f", wait, want)
	}
	if want := 25.0 / 3; life != want {
		t.Errorf("avg lifetime = %f, want %f", life, want)
	}
}
