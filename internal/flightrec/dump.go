package flightrec

import (
	"fmt"
	"hash/crc32"
	"reflect"
	"sort"
	"strings"

	"reuseiq/internal/pipeline"
)

// Component dump renderers. Each renders one microarchitectural structure
// from a MachineState as stable, line-oriented text: one line per entry or
// fact, so two dumps diff line-by-line (the debugger's diff command is
// exactly that). Renderers read only the exported state — they never touch
// the live machine, so a dump cannot perturb a replay.

// DumpNames lists the valid arguments to Dump, in display order.
var DumpNames = []string{"machine", "counters", "riq", "iq", "rob", "rename", "lsq", "mem"}

// Dump renders one named component of st. Unknown names return an error
// listing the valid ones.
func Dump(st *pipeline.MachineState, what string) (string, error) {
	var b strings.Builder
	switch what {
	case "machine":
		dumpMachine(&b, st)
	case "counters":
		dumpCounters(&b, st)
	case "riq":
		dumpRIQ(&b, st)
	case "iq":
		dumpIQ(&b, st)
	case "rob":
		dumpROB(&b, st)
	case "rename":
		dumpRename(&b, st)
	case "lsq":
		dumpLSQ(&b, st)
	case "mem":
		dumpMem(&b, st)
	default:
		return "", fmt.Errorf("flightrec: no component %q (have %s)", what, strings.Join(DumpNames, ", "))
	}
	return b.String(), nil
}

// DumpAll renders every component (the diff command's canvas).
func DumpAll(st *pipeline.MachineState) string {
	var b strings.Builder
	for _, name := range DumpNames {
		s, _ := Dump(st, name)
		b.WriteString(s)
	}
	return b.String()
}

func dumpMachine(b *strings.Builder, st *pipeline.MachineState) {
	fmt.Fprintf(b, "[machine]\n")
	fmt.Fprintf(b, "cycle %d  next-seq %d  last-commit-cycle %d\n", st.Cycle, st.NextSeq, st.LastCommit)
	fmt.Fprintf(b, "fetch pc=0x%x stall-until=%d halted=%v\n", st.FetchPC, st.FetchStallUntil, st.FetchHalted)
	fmt.Fprintf(b, "halted=%v\n", st.Halted)
	for i, f := range st.FetchQ {
		fmt.Fprintf(b, "fetchq[%d] pc=0x%x %s pred=%v:0x%x\n", i, f.PC, f.Inst.Disasm(f.PC), f.PredTaken, f.PredTarget)
	}
	for i, f := range st.DecodeLat {
		fmt.Fprintf(b, "decode[%d] pc=0x%x %s\n", i, f.PC, f.Inst.Disasm(f.PC))
	}
	for _, e := range st.ExecQ {
		fmt.Fprintf(b, "exec seq=%d rob=%d done-at=%d\n", e.Seq, e.ROBSlot, e.Done)
	}
}

// dumpCounters walks the uint64 fields of the counter structs by reflection
// — a new counter shows up in dumps (and therefore diffs) without anyone
// remembering to add it here.
func dumpCounters(b *strings.Builder, st *pipeline.MachineState) {
	fmt.Fprintf(b, "[counters]\n")
	walkU64(b, "", reflect.ValueOf(st.C))
	walkU64(b, "reuse.", reflect.ValueOf(st.Ctl.S))
	walkU64(b, "nblt.", reflect.ValueOf(st.Ctl.NBLT))
	walkU64(b, "chaos.", reflect.ValueOf(st.Chaos.C))
}

func walkU64(b *strings.Builder, prefix string, v reflect.Value) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Uint64 {
			fmt.Fprintf(b, "%s%s %d\n", prefix, t.Field(i).Name, f.Uint())
		}
	}
}

func dumpRIQ(b *strings.Builder, st *pipeline.MachineState) {
	c := &st.Ctl
	fmt.Fprintf(b, "[riq]\n")
	fmt.Fprintf(b, "state %s\n", c.State)
	fmt.Fprintf(b, "loop head=0x%x tail=0x%x call-depth=%d\n", c.LoopHead, c.LoopTail, c.CallDepth)
	fmt.Fprintf(b, "iters=%d last-iter-size=%d first-iter-done=%v reuse-ord=%d\n",
		c.IterCount, c.LastIterSize, c.FirstIterDone, c.ReuseOrd)
	for i := range c.NBLT.Addrs {
		if c.NBLT.Valid[i] {
			fmt.Fprintf(b, "nblt[%d] tail=0x%x\n", i, c.NBLT.Addrs[i])
		}
	}
}

func dumpIQ(b *strings.Builder, st *pipeline.MachineState) {
	q := &st.IQ
	fmt.Fprintf(b, "[iq]\n")
	fmt.Fprintf(b, "count=%d classified=%d\n", q.Count, q.Classified)
	for i, m := range q.Meta {
		if !m.Valid {
			continue
		}
		e := q.Slots[i]
		flags := ""
		if e.Issued {
			flags += "I"
		}
		if e.Classified {
			flags += "C"
		}
		src := ""
		for s := 0; s < e.NumSrc; s++ {
			r := "w"
			if e.SrcReady[s] {
				r = "r"
			}
			src += fmt.Sprintf(" p%d:%s", e.SrcPhys[s], r)
		}
		dst := ""
		if e.HasDest {
			dst = fmt.Sprintf(" ->p%d", e.DestPhys)
		}
		fmt.Fprintf(b, "iq[%d] seq=%d pc=0x%x %s [%s]%s%s\n", i, e.Seq, e.PC, e.Inst.Disasm(e.PC), flags, src, dst)
	}
}

func dumpROB(b *strings.Builder, st *pipeline.MachineState) {
	r := &st.ROB
	fmt.Fprintf(b, "[rob]\n")
	fmt.Fprintf(b, "count=%d head-slot=%d\n", r.Count, r.Head)
	for i := 0; i < r.Count; i++ {
		slot := (r.Head + i) % len(r.Ring)
		e := r.Ring[slot]
		flags := ""
		if e.Done {
			flags += "D"
		}
		if e.Mispred {
			flags += "M"
		}
		if e.Reused {
			flags += "R"
		}
		if e.Halt {
			flags += "H"
		}
		dst := ""
		if e.HasDest {
			dst = fmt.Sprintf(" %v:p%d(old p%d)", e.Dest, e.NewPhys, e.OldPhys)
		}
		fmt.Fprintf(b, "rob+%d seq=%d pc=0x%x %s [%s]%s\n", i, e.Seq, e.PC, e.Inst.Disasm(e.PC), flags, dst)
	}
}

func dumpRename(b *strings.Builder, st *pipeline.MachineState) {
	rf := &st.RF
	fmt.Fprintf(b, "[rename]\n")
	for r, p := range rf.IntMap {
		fmt.Fprintf(b, "$r%d -> p%d = %d (ready=%v)\n", r, p, rf.IntVals[p], rf.IntReady[p])
	}
	for r, p := range rf.FPMap {
		fmt.Fprintf(b, "$f%d -> p%d = %g (ready=%v)\n", r, p, rf.FPVals[p], rf.FPReady[p])
	}
	fmt.Fprintf(b, "free int=%d fp=%d\n", len(rf.IntFree), len(rf.FPFree))
}

func dumpLSQ(b *strings.Builder, st *pipeline.MachineState) {
	q := &st.LSQ
	fmt.Fprintf(b, "[lsq]\n")
	fmt.Fprintf(b, "count=%d head-slot=%d\n", q.Count, q.Head)
	for i := 0; i < q.Count; i++ {
		slot := (q.Head + i) % len(q.Ring)
		e := q.Ring[slot]
		kind := "load"
		if e.IsStore {
			kind = "store"
		}
		addr := "addr=?"
		if e.AddrReady {
			addr = fmt.Sprintf("addr=0x%x", e.Addr)
		}
		data := ""
		if e.IsStore {
			if e.DataReady {
				if e.IsFP {
					data = fmt.Sprintf(" data=%g", e.DataF)
				} else {
					data = fmt.Sprintf(" data=%d", e.DataI)
				}
			} else {
				data = " data=?"
			}
		}
		fmt.Fprintf(b, "lsq+%d seq=%d %s/%d %s%s done=%v\n", i, e.Seq, kind, e.Size, addr, data, e.Done)
	}
}

// dumpMem summarizes architectural memory one line per touched page — a
// checksum, not contents, so diffs say WHICH page changed without drowning
// the output.
func dumpMem(b *strings.Builder, st *pipeline.MachineState) {
	fmt.Fprintf(b, "[mem]\n")
	for _, pg := range st.Pages {
		fmt.Fprintf(b, "page 0x%05x crc32=%08x\n", pg.Num, crc32.ChecksumIEEE(pg.Data[:]))
	}
}

// DiffStates renders both states and returns a unified line diff ("-" lines
// from a, "+" from b), with section headers and unchanged lines elided. An
// empty result means the dumps are textually identical.
func DiffStates(a, b *pipeline.MachineState) string {
	return diffLines(strings.Split(DumpAll(a), "\n"), strings.Split(DumpAll(b), "\n"))
}

// diffLines is a plain LCS diff over lines. Dumps are bounded by the queue
// sizes (a few hundred lines), so the quadratic table is nothing.
func diffLines(a, b []string) string {
	n, m := len(a), len(b)
	lcs := make([][]int32, n+1)
	for i := range lcs {
		lcs[i] = make([]int32, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}
	var out strings.Builder
	section := ""
	emitted := map[string]bool{}
	emit := func(mark, line string) {
		if line == "" {
			return
		}
		if strings.HasPrefix(line, "[") {
			section = line
			return
		}
		if section != "" && !emitted[section] {
			fmt.Fprintf(&out, "%s\n", section)
			emitted[section] = true
		}
		fmt.Fprintf(&out, "%s %s\n", mark, line)
	}
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case a[i] == b[j]:
			if strings.HasPrefix(a[i], "[") {
				section = a[i]
			}
			i++
			j++
		case lcs[i+1][j] >= lcs[i][j+1]:
			emit("-", a[i])
			i++
		default:
			emit("+", b[j])
			j++
		}
	}
	for ; i < n; i++ {
		emit("-", a[i])
	}
	for ; j < m; j++ {
		emit("+", b[j])
	}
	return out.String()
}

// counterNames lists the predicates the watch command accepts as counters,
// mapped over a machine state. Sorted for help text.
func counterNames() []string {
	names := make([]string, 0, len(counterAccessors))
	for name := range counterAccessors {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// counterAccessors read live machines (watch polls one every replayed
// cycle, so no state export happens per poll).
var counterAccessors = map[string]func(*pipeline.Machine) uint64{
	"cycles":        func(m *pipeline.Machine) uint64 { return m.C.Cycles },
	"commits":       func(m *pipeline.Machine) uint64 { return m.C.Commits },
	"gated":         func(m *pipeline.Machine) uint64 { return m.C.GatedCycles },
	"fetches":       func(m *pipeline.Machine) uint64 { return m.C.Fetches },
	"mispredicts":   func(m *pipeline.Machine) uint64 { return m.C.Mispredicts },
	"reuse_renames": func(m *pipeline.Machine) uint64 { return m.C.ReuseRenames },
	"reused":        func(m *pipeline.Machine) uint64 { return m.C.ReusedCommitted },
	"detections":    func(m *pipeline.Machine) uint64 { return m.Ctl.S.Detections },
	"bufferings":    func(m *pipeline.Machine) uint64 { return m.Ctl.S.Bufferings },
	"promotions":    func(m *pipeline.Machine) uint64 { return m.Ctl.S.Promotions },
	"revokes":       func(m *pipeline.Machine) uint64 { return m.Ctl.S.Revokes },
	"reuse_exits":   func(m *pipeline.Machine) uint64 { return m.Ctl.S.ReuseExits },
	"nblt_hits":     func(m *pipeline.Machine) uint64 { return m.Ctl.S.NBLTFiltered },
	"iterations":    func(m *pipeline.Machine) uint64 { return m.Ctl.S.IterationsBuffered },
}
