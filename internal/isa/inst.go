package isa

import "fmt"

// Inst is one decoded instruction. Rs/Rt/Rd hold architectural register
// numbers whose kind (integer or FP) depends on the operation; Imm holds the
// sign- or zero-extended immediate (or the shift amount for constant shifts);
// Target holds the absolute byte address of a J/JAL target.
type Inst struct {
	Op     Op
	Rd     uint8
	Rs     uint8
	Rt     uint8
	Imm    int32
	Target uint32
}

// Nop is the canonical no-operation instruction.
var Nop = Inst{Op: OpNOP}

// BranchTarget returns the destination of a taken conditional branch located
// at address pc (PC-relative, word-scaled, no delay slot).
func (in Inst) BranchTarget(pc uint32) uint32 {
	return pc + 4 + uint32(in.Imm)*4
}

// StaticTarget returns the statically known control target of in at address
// pc, and whether one exists (true for branches and direct jumps/calls,
// false for register-indirect jumps).
func (in Inst) StaticTarget(pc uint32) (uint32, bool) {
	switch in.Op.Info().Class {
	case ClassBranch:
		return in.BranchTarget(pc), true
	case ClassJump:
		return in.Target, true
	case ClassCall:
		if in.Op == OpJAL {
			return in.Target, true
		}
	}
	return 0, false
}

// String renders in as assembly, using pc to resolve branch targets when
// pc is meaningful; Disasm is the address-aware variant.
func (in Inst) String() string { return in.Disasm(0) }

// Disasm renders the instruction as assembler text assuming it is located at
// address pc (branch targets print as absolute hex addresses).
func (in Inst) Disasm(pc uint32) string {
	info := in.Op.Info()
	switch in.Op {
	case OpNOP, OpHALT:
		return info.Name
	case OpJ, OpJAL:
		return fmt.Sprintf("%s 0x%x", info.Name, in.Target)
	case OpJR:
		return fmt.Sprintf("jr %s", IntReg(in.Rs))
	case OpJALR:
		return fmt.Sprintf("jalr %s, %s", IntReg(in.Rd), IntReg(in.Rs))
	case OpLUI:
		return fmt.Sprintf("lui %s, %d", IntReg(in.Rt), in.Imm)
	}
	switch info.Class {
	case ClassBranch:
		tgt := in.BranchTarget(pc)
		if info.ReadsRt {
			return fmt.Sprintf("%s %s, %s, 0x%x", info.Name, IntReg(in.Rs), IntReg(in.Rt), tgt)
		}
		return fmt.Sprintf("%s %s, 0x%x", info.Name, IntReg(in.Rs), tgt)
	case ClassLoad:
		return fmt.Sprintf("%s %s, %d(%s)", info.Name, in.destReg(), in.Imm, IntReg(in.Rs))
	case ClassStore:
		val := Reg{KindInt, in.Rt}
		if info.RtFP {
			val = Reg{KindFP, in.Rt}
		}
		return fmt.Sprintf("%s %s, %d(%s)", info.Name, val, in.Imm, IntReg(in.Rs))
	}
	switch info.Fmt {
	case FmtI:
		return fmt.Sprintf("%s %s, %s, %d", info.Name, in.destReg(), IntReg(in.Rs), in.Imm)
	case FmtF:
		d := in.destReg()
		rs := Reg{KindInt, in.Rs}
		if info.RsFP {
			rs = Reg{KindFP, in.Rs}
		}
		if info.ReadsRt {
			rt := Reg{KindFP, in.Rt}
			return fmt.Sprintf("%s %s, %s, %s", info.Name, d, rs, rt)
		}
		return fmt.Sprintf("%s %s, %s", info.Name, d, rs)
	default: // FmtR
		if info.UsesShamt {
			return fmt.Sprintf("%s %s, %s, %d", info.Name, IntReg(in.Rd), IntReg(in.Rt), in.Imm)
		}
		switch in.Op {
		case OpSLLV, OpSRLV, OpSRAV:
			// Variable shifts use MIPS operand order: rd, rt (value),
			// rs (shift amount) — matching the assembler's parse.
			return fmt.Sprintf("%s %s, %s, %s", info.Name, IntReg(in.Rd), IntReg(in.Rt), IntReg(in.Rs))
		}
		return fmt.Sprintf("%s %s, %s, %s", info.Name, IntReg(in.Rd), IntReg(in.Rs), IntReg(in.Rt))
	}
}

func (in Inst) destReg() Reg {
	if d, ok := in.Dest(); ok {
		return d
	}
	info := in.Op.Info()
	kind := KindInt
	if info.DestFP {
		kind = KindFP
	}
	if info.DestIsRt {
		return Reg{kind, in.Rt}
	}
	return Reg{kind, in.Rd}
}
