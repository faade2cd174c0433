// Package prog defines the loaded-program representation shared by the
// functional interpreter and the pipeline simulator: a decoded text segment
// (each instruction also predecoded for the pipeline), a sparse
// byte-addressable data memory image, and the standard address-space layout
// (MIPS-flavoured).
package prog

import (
	"fmt"

	"reuseiq/internal/fu"
	"reuseiq/internal/isa"
)

// Standard address-space layout.
const (
	TextBase  = 0x0040_0000 // first instruction
	DataBase  = 0x1000_0000 // static data segment
	StackTop  = 0x7fff_0000 // initial stack pointer (grows down)
	StackSize = 1 << 20     // reserved stack region, for bounds sanity checks
)

// Program is a loaded executable image.
type Program struct {
	// Text holds the decoded instructions, laid out contiguously from
	// TextBase. Words holds the corresponding encoded machine words.
	Text  []isa.Inst
	Words []uint32
	// Predecoded holds each instruction of Text decoded once for the
	// pipeline; At looks one up by address.
	Predecoded []Predecoded
	// Entry is the address of the first instruction to execute.
	Entry uint32
	// Data is the initial data memory image (copied before each run).
	Data *Memory
	// Symbols maps label names to addresses (text or data), for tooling.
	Symbols map[string]uint32
}

// New creates a program from decoded instructions, encoding and predecoding
// each one. It is the only constructor, and a program is not modified after
// it returns, so the predecoded records can be shared by any number of
// machines.
func New(text []isa.Inst) (*Program, error) {
	p := &Program{
		Text:       text,
		Words:      make([]uint32, len(text)),
		Predecoded: make([]Predecoded, len(text)),
		Entry:      TextBase,
		Data:       NewMemory(),
		Symbols:    map[string]uint32{},
	}
	for i, in := range text {
		w, err := isa.Encode(in)
		if err != nil {
			return nil, fmt.Errorf("prog: instruction %d (%v): %w", i, in, err)
		}
		p.Words[i] = w
		p.Predecoded[i] = predecode(in)
	}
	return p, nil
}

// Predecoded is one static instruction decoded for the pipeline: everything
// rename, issue, writeback and commit would otherwise derive again from the
// instruction on each of its dynamic instances. It extends the paper's
// logical register list (LRL, §2.3), which keeps a buffered entry's
// architectural registers so that reuse never decodes it again, to every
// instruction of the program.
type Predecoded struct {
	Src     [2]isa.Reg // sources in Inst.SourceRegs order: rs, then rt
	Dest    isa.Reg
	NumSrc  uint8
	ReadsRs bool // Src[0] is rs; otherwise the only source is rt
	HasDest bool // Inst.Dest
	Control bool // Op.IsControl
	Halt    bool
	FP      bool // double-width FP access (l.d, s.d)
	Class   isa.Class
	MemSize uint8 // bytes a load or store accesses; 0 for other ops
	Timing  fu.OpTiming
}

// IsMem reports whether the instruction is a load or a store.
func (d *Predecoded) IsMem() bool { return d.MemSize != 0 }

func predecode(in isa.Inst) Predecoded {
	info := in.Op.Info()
	d := Predecoded{
		ReadsRs: info.ReadsRs,
		Class:   info.Class,
		Control: in.Op.IsControl(),
		Halt:    in.Op == isa.OpHALT,
		Timing:  fu.Timing(in.Op),
	}
	d.NumSrc = uint8(in.SourceRegs(&d.Src))
	d.Dest, d.HasDest = in.Dest()
	if in.Op.IsMem() {
		d.MemSize = memSize(in.Op)
		d.FP = in.Op == isa.OpLD || in.Op == isa.OpSD
	}
	return d
}

func memSize(op isa.Op) uint8 {
	switch op {
	case isa.OpLB, isa.OpLBU, isa.OpSB:
		return 1
	case isa.OpLH, isa.OpLHU, isa.OpSH:
		return 2
	case isa.OpLD, isa.OpSD:
		return 8
	}
	return 4
}

// At returns the predecoded record of the instruction at byte address pc,
// which must be an aligned address inside the text segment (every address
// the front end fetched from is).
func (p *Program) At(pc uint32) *Predecoded { return &p.Predecoded[(pc-TextBase)>>2] }

// InstAt returns the instruction at byte address addr, or false when addr is
// outside the text segment or unaligned.
func (p *Program) InstAt(addr uint32) (isa.Inst, bool) {
	if addr < TextBase || addr&3 != 0 {
		return isa.Inst{}, false
	}
	idx := (addr - TextBase) / 4
	if int(idx) >= len(p.Text) {
		return isa.Inst{}, false
	}
	return p.Text[idx], true
}

// TextEnd returns the address one past the last instruction.
func (p *Program) TextEnd() uint32 { return TextBase + uint32(len(p.Text))*4 }

// Addr returns the address of instruction index idx.
func Addr(idx int) uint32 { return TextBase + uint32(idx)*4 }

// Index returns the text-segment index of address addr.
func Index(addr uint32) int { return int(addr-TextBase) / 4 }

// Disasm renders the whole text segment, one instruction per line.
func (p *Program) Disasm() string {
	s := ""
	for i, in := range p.Text {
		pc := Addr(i)
		s += fmt.Sprintf("0x%08x: %s\n", pc, in.Disasm(pc))
	}
	return s
}
