// Command ckptcheck is the tier-1 checkpoint/restore gate (make ckpt-check).
// It proves the two load-bearing claims of the snapshot subsystem end to end:
//
//  1. In-process lockstep smoke: a kernel run that is snapshotted mid-flight,
//     restored, and continued must finish in exactly the state of a run that
//     was never stopped — compared by re-serializing both final machines and
//     requiring byte-identical images. Checked with and without chaos
//     injection (the PRNG stream position must survive the round trip).
//
//  2. Crash drill: the reusebench command given after "--" is run three ways:
//     straight (reference stdout); with -journal attached and SIGKILLed as
//     soon as the journal shows progress; then with -journal -resume to
//     completion. The resumed stdout, minus the trailing wall-clock line,
//     must be byte-identical to the reference, and the journal — a run
//     ledger, read with runstore.Load — must hold every cell exactly once,
//     one record per line.
//
// Usage:
//
//	ckptcheck -- go run ./cmd/reusebench -figure 5 -sizes 32 -benchjson= -progress=false
//
// Exit status 0 on success, 1 on any mismatch or harness failure, 2 on usage
// errors.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"reuseiq/internal/cell"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/runstore"
	"reuseiq/internal/snapshot"
)

func main() {
	timeout := flag.Duration("timeout", 5*time.Minute, "overall budget for the subprocess drill")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: ckptcheck [-timeout d] -- <reusebench command...>")
		os.Exit(2)
	}
	if err := lockstepSmoke(); err != nil {
		fmt.Fprintln(os.Stderr, "ckptcheck: lockstep smoke:", err)
		os.Exit(1)
	}
	fmt.Println("ckptcheck: save/restore lockstep smoke ok (plain + chaos)")
	if err := crashDrill(flag.Args(), *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "ckptcheck: crash drill:", err)
		os.Exit(1)
	}
	fmt.Println("ckptcheck: kill -9 / -resume drill ok (byte-identical report)")
}

// lockstepSmoke checks save → restore → continue against an uninterrupted
// run of the same configuration, comparing the final machines by their
// serialized images.
func lockstepSmoke() error {
	sp := cell.Spec{Kernel: "aps", IQSize: 32, Reuse: true, NBLTSize: cell.DefaultNBLT}
	p, _, err := sp.Program()
	if err != nil {
		return err
	}
	for _, withChaos := range []bool{false, true} {
		if withChaos {
			sp.ChaosSeed = 7
		}
		cfg := sp.Config()

		straight := pipeline.New(cfg, p)
		if err := straight.Run(); err != nil {
			return err
		}
		var want bytes.Buffer
		if err := snapshot.Save(&want, straight); err != nil {
			return err
		}

		m := pipeline.New(cfg, p)
		stopAt := straight.C.Cycles / 2
		err := m.RunBreakable(stopAt, func() bool { return true })
		if err != pipeline.ErrStopped {
			return fmt.Errorf("mid-run stop (chaos=%v): %v", withChaos, err)
		}
		var img bytes.Buffer
		if err := snapshot.Save(&img, m); err != nil {
			return err
		}
		restored, err := snapshot.Restore(bytes.NewReader(img.Bytes()), cfg, p)
		if err != nil {
			return fmt.Errorf("restore at cycle %d (chaos=%v): %w", stopAt, withChaos, err)
		}
		if err := restored.Run(); err != nil {
			return fmt.Errorf("continue after restore (chaos=%v): %w", withChaos, err)
		}
		var got bytes.Buffer
		if err := snapshot.Save(&got, restored); err != nil {
			return err
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			return fmt.Errorf("chaos=%v: restored run's final state differs from the uninterrupted run (%d vs %d bytes)",
				withChaos, got.Len(), want.Len())
		}
	}
	return nil
}

// runOnce runs argv to completion and returns its stdout.
func runOnce(argv []string, extra ...string) ([]byte, []byte, error) {
	cmd := exec.Command(argv[0], append(argv[1:], extra...)...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	return out.Bytes(), errb.Bytes(), err
}

// stripWallClock drops the trailing "(completed in ...)" line, the one
// legitimately non-deterministic part of a reusebench report.
func stripWallClock(out []byte) []byte {
	lines := bytes.Split(out, []byte("\n"))
	kept := lines[:0]
	for _, l := range lines {
		if bytes.HasPrefix(l, []byte("(completed in ")) {
			continue
		}
		kept = append(kept, l)
	}
	return bytes.Join(kept, []byte("\n"))
}

// journalLines counts complete (newline-terminated) lines in the journal.
func journalLines(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return bytes.Count(data, []byte("\n"))
}

func crashDrill(argv []string, timeout time.Duration) error {
	dir, err := os.MkdirTemp("", "ckptcheck-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jpath := filepath.Join(dir, "sweep.jsonl")

	refOut, refErr, err := runOnce(argv)
	if err != nil {
		return fmt.Errorf("reference run: %w\n%s", err, refErr)
	}

	// Journaled run, SIGKILLed (whole process group: "go run" wraps the real
	// binary) once the journal holds at least two records.
	kill := exec.Command(argv[0], append(argv[1:], "-journal", jpath)...)
	kill.Stdout = nil
	kill.Stderr = nil
	kill.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := kill.Start(); err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	killed := false
	for time.Now().Before(deadline) {
		if journalLines(jpath) >= 2 {
			syscall.Kill(-kill.Process.Pid, syscall.SIGKILL)
			killed = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	kill.Wait()
	if !killed {
		return fmt.Errorf("journal %s showed no progress within %s", jpath, timeout)
	}
	if journalLines(jpath) == 0 {
		return fmt.Errorf("killed run left no journal records")
	}

	resOut, resErr, err := runOnce(argv, "-journal", jpath, "-resume")
	if err != nil {
		return fmt.Errorf("resumed run: %w\n%s", err, resErr)
	}
	if !strings.Contains(string(resErr), "recovered") {
		return fmt.Errorf("resumed run did not report recovered cells:\n%s", resErr)
	}

	want, got := stripWallClock(refOut), stripWallClock(resOut)
	if !bytes.Equal(want, got) {
		return fmt.Errorf("resumed report differs from uninterrupted report:\n--- straight ---\n%s\n--- resumed ---\n%s", want, got)
	}

	// Every cell exactly once: no cell may repeat across the journal, and
	// every complete line must be a record.
	recs, err := runstore.Load(jpath)
	if err != nil {
		return err
	}
	if n := journalLines(jpath); n != len(recs) {
		return fmt.Errorf("journal holds %d lines but %d records", n, len(recs))
	}
	seen := map[cell.Spec]bool{}
	for _, rec := range recs {
		if seen[rec.Spec] {
			return fmt.Errorf("cell %s recorded twice: a resumed sweep double-counted", rec.Spec.Name(cell.Label))
		}
		seen[rec.Spec] = true
	}
	return nil
}
