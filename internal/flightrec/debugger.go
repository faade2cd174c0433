package flightrec

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"reuseiq/internal/core"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/telemetry"
)

// Debugger is the scriptable command interpreter shared by the reusedbg
// REPL and its -e one-shot mode. Every command is a line of text; output
// goes to Out, errors come back from Exec so the caller decides whether to
// keep the loop alive (REPL) or exit nonzero (script mode).
type Debugger struct {
	S   *Session
	Out io.Writer
}

// NewDebugger positions s at cycle 0, so every command works immediately.
func NewDebugger(s *Session, out io.Writer) (*Debugger, error) {
	if err := s.Seek(0); err != nil {
		s.Close()
		return nil, err
	}
	return &Debugger{S: s, Out: out}, nil
}

// Close releases the session's machine.
func (d *Debugger) Close() { d.S.Close() }

// Exec runs one command line. Blank lines and #-comments are no-ops.
func (d *Debugger) Exec(line string) error {
	f := strings.Fields(line)
	if len(f) == 0 || strings.HasPrefix(f[0], "#") {
		return nil
	}
	cmd, args := f[0], f[1:]
	switch cmd {
	case "help", "?":
		d.help()
		return nil
	case "info":
		return d.info()
	case "seek":
		return d.seek(args)
	case "step":
		return d.step(args, false)
	case "rstep":
		return d.step(args, true)
	case "dump":
		return d.dump(args)
	case "diff":
		return d.diff(args)
	case "watch":
		return d.watch(args)
	case "why":
		return d.why(args)
	case "events":
		return d.events(args)
	case "export":
		return d.export(args)
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

func (d *Debugger) help() {
	fmt.Fprint(d.Out, `commands:
  info                      recording bounds, events, manifest
  seek <cycle>              position the cursor (accepts Perfetto ts values)
  step [k]                  advance k cycles (default 1)
  rstep [k]                 go back k cycles (default 1; replays from cycle 0)
  dump <what>               `+strings.Join(DumpNames, "|")+`|all
  diff <c1> <c2>            unified diff of full dumps at two cycles
  watch riq                 run until the RIQ controller changes state
  watch pc <addr>           run until an instruction at addr commits
  watch <ctr> <op> <n>      run until counter op n (ops: < <= == != >= >)
                            counters: `+strings.Join(counterNames(), " ")+`
  why [cycle]               causal chain for the condition at a cycle
  events [from [to]]        list the run's telemetry events in a window
  export <file> [from to]   write a Perfetto trace window (ts == cycle)
  help                      this text
`)
}

func (d *Debugger) info() error {
	a := d.S.A
	from, to := d.S.Bounds()
	fmt.Fprintf(d.Out, "cursor   cycle %d\n", d.S.Cycle())
	fmt.Fprintf(d.Out, "seekable [%d, %d] (%d cycles)\n", from, to, to-from+1)
	fmt.Fprintf(d.Out, "halted   %v\n", a.Halted)
	fmt.Fprintf(d.Out, "events   %d", len(a.Events))
	if len(a.Events) > 0 {
		fmt.Fprintf(d.Out, " (cycles %d..%d)", a.Events[0].Cycle, a.Events[len(a.Events)-1].Cycle)
	}
	fmt.Fprintln(d.Out)
	man := a.Man
	src := man.Kernel
	if src == "" && man.AsmSource != "" {
		src = "(inline asm)"
	}
	fmt.Fprintf(d.Out, "run      kernel=%s baseline=%v iq=%d chaos-seed=%d\n",
		src, !man.Reuse, man.IQSize, man.ChaosSeed)
	fmt.Fprintf(d.Out, "session  %d cycles replayed\n", d.S.Replayed)
	return nil
}

func (d *Debugger) seek(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: seek <cycle>")
	}
	n, err := parseNum(args[0])
	if err != nil {
		return err
	}
	if err := d.S.Seek(n); err != nil {
		return err
	}
	fmt.Fprintf(d.Out, "at cycle %d\n", d.S.Cycle())
	return nil
}

func (d *Debugger) step(args []string, back bool) error {
	k := uint64(1)
	if len(args) == 1 {
		n, err := parseNum(args[0])
		if err != nil {
			return err
		}
		k = n
	} else if len(args) > 1 {
		return fmt.Errorf("usage: %s [k]", map[bool]string{false: "step", true: "rstep"}[back])
	}
	var err error
	if back {
		err = d.S.RStep(k)
	} else {
		_, to := d.S.Bounds()
		if d.S.Cycle()+k > to {
			return fmt.Errorf("step lands beyond the recording's end (cycle %d)", to)
		}
		err = d.S.Step(k)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(d.Out, "at cycle %d\n", d.S.Cycle())
	return nil
}

func (d *Debugger) dump(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: dump %s|all", strings.Join(DumpNames, "|"))
	}
	st, err := d.S.State()
	if err != nil {
		return err
	}
	if args[0] == "all" {
		fmt.Fprint(d.Out, DumpAll(st))
		return nil
	}
	s, err := Dump(st, args[0])
	if err != nil {
		return err
	}
	fmt.Fprint(d.Out, s)
	return nil
}

func (d *Debugger) diff(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: diff <cycle1> <cycle2>")
	}
	c1, err := parseNum(args[0])
	if err != nil {
		return err
	}
	c2, err := parseNum(args[1])
	if err != nil {
		return err
	}
	if err := d.S.Seek(c1); err != nil {
		return err
	}
	a, err := d.S.State()
	if err != nil {
		return err
	}
	if err := d.S.Seek(c2); err != nil {
		return err
	}
	b, err := d.S.State()
	if err != nil {
		return err
	}
	diff := DiffStates(a, b)
	if diff == "" {
		fmt.Fprintf(d.Out, "cycles %d and %d: no differences\n", c1, c2)
		return nil
	}
	fmt.Fprintf(d.Out, "--- cycle %d\n+++ cycle %d\n%s", c1, c2, diff)
	return nil
}

func (d *Debugger) watch(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: watch riq | watch pc <addr> | watch <counter> <op> <n>")
	}
	switch {
	case args[0] == "riq" && len(args) == 1:
		return d.watchRIQ()
	case args[0] == "pc" && len(args) == 2:
		pc, err := parseNum(args[1])
		if err != nil {
			return err
		}
		return d.watchPC(uint32(pc))
	case len(args) == 3:
		return d.watchCounter(args[0], args[1], args[2])
	}
	return fmt.Errorf("usage: watch riq | watch pc <addr> | watch <counter> <op> <n>")
}

// watchRIQ replays until the reuse controller leaves its current state.
func (d *Debugger) watchRIQ() error {
	m := d.S.Machine()
	start := m.Ctl.State()
	hit, err := d.S.RunUntil(func(m *pipeline.Machine) bool {
		return m.Ctl.State() != start
	})
	if err != nil {
		return err
	}
	if !hit {
		fmt.Fprintf(d.Out, "RIQ stayed in %s through the end of the recording (cycle %d)\n",
			start, d.S.Cycle())
		return nil
	}
	now := d.S.Machine().Ctl.State()
	fmt.Fprintf(d.Out, "cycle %d: RIQ %s -> %s\n", d.S.Cycle(), start, now)
	if now == core.Reuse || start == core.Reuse {
		fmt.Fprint(d.Out, Explain(d.S.A, d.S.Cycle()))
	}
	return nil
}

// watchPC replays until an instruction at pc commits. The hook only sets a
// flag — an OnCommit error would latch into the machine permanently.
func (d *Debugger) watchPC(pc uint32) error {
	m := d.S.Machine()
	hit := false
	prev := m.OnCommit
	m.OnCommit = func(c pipeline.Commit) error {
		if prev != nil {
			if err := prev(c); err != nil {
				return err
			}
		}
		if c.PC == pc {
			hit = true
		}
		return nil
	}
	fired, err := d.S.RunUntil(func(*pipeline.Machine) bool { return hit })
	// The session may have replaced the machine; only unhook the one we
	// hooked.
	if cur := d.S.Machine(); cur == m {
		cur.OnCommit = prev
	}
	if err != nil {
		return err
	}
	if !fired {
		fmt.Fprintf(d.Out, "pc 0x%x never committed before the recording's end (cycle %d)\n", pc, d.S.Cycle())
		return nil
	}
	fmt.Fprintf(d.Out, "cycle %d: committed instruction at pc 0x%x\n", d.S.Cycle(), pc)
	return nil
}

func (d *Debugger) watchCounter(name, op, val string) error {
	get, ok := counterAccessors[name]
	if !ok {
		return fmt.Errorf("no counter %q (have %s)", name, strings.Join(counterNames(), ", "))
	}
	n, err := parseNum(val)
	if err != nil {
		return err
	}
	var cmp func(uint64) bool
	switch op {
	case "<":
		cmp = func(v uint64) bool { return v < n }
	case "<=":
		cmp = func(v uint64) bool { return v <= n }
	case "==", "=":
		cmp = func(v uint64) bool { return v == n }
	case "!=":
		cmp = func(v uint64) bool { return v != n }
	case ">=":
		cmp = func(v uint64) bool { return v >= n }
	case ">":
		cmp = func(v uint64) bool { return v > n }
	default:
		return fmt.Errorf("no operator %q (have < <= == != >= >)", op)
	}
	if cmp(get(d.S.Machine())) {
		fmt.Fprintf(d.Out, "cycle %d: %s = %d already satisfies %s %s %s\n",
			d.S.Cycle(), name, get(d.S.Machine()), name, op, val)
		return nil
	}
	hit, err := d.S.RunUntil(func(m *pipeline.Machine) bool { return cmp(get(m)) })
	if err != nil {
		return err
	}
	if !hit {
		fmt.Fprintf(d.Out, "%s %s %s never held before the recording's end (cycle %d, %s = %d)\n",
			name, op, val, d.S.Cycle(), name, get(d.S.Machine()))
		return nil
	}
	fmt.Fprintf(d.Out, "cycle %d: %s = %d (%s %s %s)\n",
		d.S.Cycle(), name, get(d.S.Machine()), name, op, val)
	return nil
}

func (d *Debugger) why(args []string) error {
	cycle := d.S.Cycle()
	if len(args) == 1 {
		n, err := parseNum(args[0])
		if err != nil {
			return err
		}
		cycle = n
	} else if len(args) > 1 {
		return fmt.Errorf("usage: why [cycle]")
	}
	fmt.Fprint(d.Out, Explain(d.S.A, cycle))
	return nil
}

// eventsCap bounds the events listing so a fat window cannot flood a REPL.
const eventsCap = 200

func (d *Debugger) events(args []string) error {
	from, to := d.S.Bounds()
	var err error
	switch len(args) {
	case 0:
	case 1:
		if from, err = parseNum(args[0]); err != nil {
			return err
		}
	case 2:
		if from, err = parseNum(args[0]); err != nil {
			return err
		}
		if to, err = parseNum(args[1]); err != nil {
			return err
		}
	default:
		return fmt.Errorf("usage: events [from [to]]")
	}
	evs := d.S.A.EventsBetween(from, to)
	shown := evs
	if len(shown) > eventsCap {
		shown = shown[:eventsCap]
	}
	for _, e := range shown {
		fmt.Fprintf(d.Out, "%s\n", telemetry.MarshalEvent(e))
	}
	if len(evs) > len(shown) {
		fmt.Fprintf(d.Out, "... %d more (narrow the window)\n", len(evs)-len(shown))
	}
	fmt.Fprintf(d.Out, "%d events in [%d, %d]\n", len(evs), from, to)
	return nil
}

func (d *Debugger) export(args []string) error {
	if len(args) != 1 && len(args) != 3 {
		return fmt.Errorf("usage: export <file> [from to]")
	}
	path := args[0]
	from, to := d.S.Bounds()
	if len(args) == 3 {
		var err error
		if from, err = parseNum(args[1]); err != nil {
			return err
		}
		if to, err = parseNum(args[2]); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteTraceWindow(f, d.S.A.Events, from, to); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	n := len(d.S.A.EventsBetween(from, to))
	fmt.Fprintf(d.Out, "wrote %s: cycles [%d, %d], %d events (Perfetto ts == cycle; seek any ts to return here)\n",
		path, from, to, n)
	return nil
}

// parseNum accepts decimal and 0x-prefixed hex (Perfetto shows both).
func parseNum(s string) (uint64, error) {
	n, err := strconv.ParseUint(strings.TrimSuffix(s, "ns"), 0, 64)
	if err != nil {
		return 0, fmt.Errorf("not a number: %q", s)
	}
	return n, nil
}
