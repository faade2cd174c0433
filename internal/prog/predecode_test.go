package prog_test

import (
	"testing"

	"reuseiq/internal/asm"
	"reuseiq/internal/compiler"
	"reuseiq/internal/fu"
	"reuseiq/internal/isa"
	"reuseiq/internal/prog"
	"reuseiq/internal/progen"
	"reuseiq/internal/workloads"
)

// accessBytes is the width of each memory operation, written out here
// independently of the predecoder's own table.
var accessBytes = map[isa.Op]uint8{
	isa.OpLW: 4, isa.OpSW: 4,
	isa.OpLB: 1, isa.OpLBU: 1, isa.OpSB: 1,
	isa.OpLH: 2, isa.OpLHU: 2, isa.OpSH: 2,
	isa.OpLD: 8, isa.OpSD: 8,
}

// checkPredecoded compares every record of p with what the isa and fu
// helpers return for its instruction, and checks that At finds it by
// address.
func checkPredecoded(t *testing.T, name string, p *prog.Program) {
	t.Helper()
	if len(p.Predecoded) != len(p.Text) {
		t.Fatalf("%s: %d records for %d instructions", name, len(p.Predecoded), len(p.Text))
	}
	for i, in := range p.Text {
		info := in.Op.Info()
		want := prog.Predecoded{
			ReadsRs: info.ReadsRs,
			Class:   info.Class,
			Control: in.Op.IsControl(),
			Halt:    in.Op == isa.OpHALT,
			Timing:  fu.Timing(in.Op),
		}
		want.NumSrc = uint8(in.SourceRegs(&want.Src))
		want.Dest, want.HasDest = in.Dest()
		if in.Op.IsMem() {
			size, ok := accessBytes[in.Op]
			if !ok {
				t.Fatalf("%s: memory op %v has no width in the test's table", name, in.Op)
			}
			want.MemSize = size
			want.FP = in.Op == isa.OpLD || in.Op == isa.OpSD
		}
		if got := p.Predecoded[i]; got != want {
			t.Fatalf("%s: instruction %d (%v): record %+v, helpers give %+v", name, i, in, got, want)
		}
		if p.At(prog.Addr(i)) != &p.Predecoded[i] {
			t.Fatalf("%s: At(0x%x) is not record %d", name, prog.Addr(i), i)
		}
	}
}

// TestPredecodedMatchesHelpers checks the records of every paper kernel in
// its original, loop-distributed and 4x-unrolled form, of random generated
// programs, and of every operation with assorted register fields.
func TestPredecodedMatchesHelpers(t *testing.T) {
	for _, k := range workloads.All() {
		forms := map[string]*compiler.Program{
			"orig":    k.Prog,
			"dist":    compiler.Distribute(k.Prog),
			"unroll4": compiler.Unroll(k.Prog, 4),
		}
		for form, ir := range forms {
			p, _, err := compiler.Compile(ir)
			if err != nil {
				t.Fatalf("compile %s/%s: %v", k.Name, form, err)
			}
			checkPredecoded(t, k.Name+"/"+form, p)
		}
	}

	for seed := int64(1); seed <= 50; seed++ {
		p, err := asm.Assemble(progen.Generate(seed, progen.DefaultConfig()))
		if err != nil {
			t.Fatalf("progen seed %d: %v", seed, err)
		}
		checkPredecoded(t, "progen", p)
	}

	// Every operation, with the destination field on the zero register, on
	// the link register and on an ordinary register.
	var text []isa.Inst
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		for _, r := range []uint8{0, 5, isa.RegRA} {
			text = append(text, isa.Inst{Op: op, Rd: r, Rt: r, Rs: 7, Imm: 3, Target: prog.TextBase})
		}
	}
	p, err := prog.New(text)
	if err != nil {
		t.Fatal(err)
	}
	checkPredecoded(t, "all ops", p)
}
