// Command reusedbg is the time-travel debugger over a flight-recorder
// directory (reusesim -flightrec <dir>). It rebuilds the machine from the
// recording's manifest and reaches any cycle in [0, end] by deterministic
// replay — forward by stepping the live machine, backward by re-running from
// cycle 0 (a cold seek to the end of btrix at IQ 32, the largest paper
// cell, replays in about a second) — then exposes the live machine through
// dump/diff/watch commands, and the recorded event timeline through
// why/events/export.
//
// Usage:
//
//	reusedbg -dir rec/                        # interactive REPL
//	reusedbg -dir rec/ -e 'seek 50000' -e 'dump riq'
//	reusedbg -dir rec/ -e 'why 62000'
//	reusedbg -dir rec/ -no-verify -e 'info'   # skip replay invariant checks
//
// Every -e command runs in order against one shared session; the first
// failure exits nonzero. With no -e flags a prompt loop reads commands from
// stdin (one per line, # comments allowed), so a here-doc scripts it too.
//
// Exit codes: 0 success, 1 a command or the recording failed, 2 flag error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"reuseiq/internal/flightrec"
)

// multiFlag collects repeated -e occurrences in order.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint(*m) }
func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

func main() {
	os.Exit(mainImpl(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func mainImpl(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reusedbg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "flight-recorder directory (required)")
	noVerify := fs.Bool("no-verify", false, "skip the lockstep invariant checker during replays")
	var cmds multiFlag
	fs.Var(&cmds, "e", "command to execute (repeatable; suppresses the REPL)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dir == "" || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: reusedbg -dir <recording> [-no-verify] [-e <cmd>]...")
		return 2
	}

	a, err := flightrec.Load(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "reusedbg:", err)
		return 1
	}
	s := flightrec.NewSession(a)
	s.Verify = !*noVerify
	d, err := flightrec.NewDebugger(s, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "reusedbg:", err)
		return 1
	}
	defer d.Close()

	if len(cmds) > 0 {
		for _, c := range cmds {
			if err := d.Exec(c); err != nil {
				fmt.Fprintf(stderr, "reusedbg: %s: %v\n", c, err)
				return 1
			}
		}
		return 0
	}

	from, to := d.S.Bounds()
	fmt.Fprintf(stdout, "recording %s: seekable cycles [%d, %d] — try help\n", *dir, from, to)
	sc := bufio.NewScanner(stdin)
	prompt := func() { fmt.Fprintf(stdout, "(reusedbg @%d) ", d.S.Cycle()) }
	for prompt(); sc.Scan(); prompt() {
		line := sc.Text()
		if line == "quit" || line == "exit" || line == "q" {
			return 0
		}
		if err := d.Exec(line); err != nil {
			fmt.Fprintln(stdout, "error:", err)
		}
	}
	fmt.Fprintln(stdout)
	return 0
}
