package isa

import "math"

// Operands carries the dynamic input values of one instruction instance.
// A and B are the integer values of the rs and rt sources; FA and FB the FP
// values when the corresponding source is an FP register. PC is the byte
// address of the instruction itself.
type Operands struct {
	A, B   int32
	FA, FB float64
	PC     uint32
}

// Result is the outcome of evaluating one instruction (excluding the memory
// access itself, which the caller performs using Addr).
type Result struct {
	I int32   // integer destination value
	F float64 // FP destination value

	Addr      uint32 // effective address (loads/stores)
	StoreI    int32  // integer store data (SW/SB)
	StoreF    float64
	Taken     bool   // control transfer taken
	Target    uint32 // control transfer destination when Taken
	Halt      bool   // OpHALT reached
	DivByZero bool   // integer division by zero (result forced to 0)
}

// Eval computes the architectural effect of one instruction given its
// operand values. It is the single source of truth for instruction semantics,
// shared by the functional interpreter and the pipeline's execute stage.
func Eval(in Inst, ops Operands) Result {
	var r Result
	a, b := ops.A, ops.B
	fa, fb := ops.FA, ops.FB
	switch in.Op {
	case OpADD:
		r.I = a + b
	case OpSUB:
		r.I = a - b
	case OpAND:
		r.I = a & b
	case OpOR:
		r.I = a | b
	case OpXOR:
		r.I = a ^ b
	case OpNOR:
		r.I = ^(a | b)
	case OpSLT:
		r.I = boolToInt(a < b)
	case OpSLTU:
		r.I = boolToInt(uint32(a) < uint32(b))
	case OpSLL:
		r.I = b << uint(in.Imm&31)
	case OpSRL:
		r.I = int32(uint32(b) >> uint(in.Imm&31))
	case OpSRA:
		r.I = b >> uint(in.Imm&31)
	case OpSLLV:
		r.I = b << uint(a&31)
	case OpSRLV:
		r.I = int32(uint32(b) >> uint(a&31))
	case OpSRAV:
		r.I = b >> uint(a&31)
	case OpMUL:
		r.I = a * b
	case OpDIVQ:
		if b == 0 {
			r.DivByZero = true
		} else if a == math.MinInt32 && b == -1 {
			r.I = math.MinInt32 // overflow wraps, as on real hardware
		} else {
			r.I = a / b
		}
	case OpREM:
		if b == 0 {
			r.DivByZero = true
		} else if a == math.MinInt32 && b == -1 {
			r.I = 0
		} else {
			r.I = a % b
		}

	case OpADDI:
		r.I = a + in.Imm
	case OpANDI:
		r.I = a & in.Imm
	case OpORI:
		r.I = a | in.Imm
	case OpXORI:
		r.I = a ^ in.Imm
	case OpSLTI:
		r.I = boolToInt(a < in.Imm)
	case OpSLTIU:
		r.I = boolToInt(uint32(a) < uint32(in.Imm))
	case OpLUI:
		r.I = in.Imm << 16

	case OpLW, OpLB, OpLBU, OpLH, OpLHU, OpLD:
		r.Addr = EffAddr(in, a)
	case OpSW, OpSB, OpSH:
		r.Addr = EffAddr(in, a)
		r.StoreI = b
	case OpSD:
		r.Addr = EffAddr(in, a)
		r.StoreF = fb

	case OpBEQ:
		r.Taken = a == b
	case OpBNE:
		r.Taken = a != b
	case OpBLEZ:
		r.Taken = a <= 0
	case OpBGTZ:
		r.Taken = a > 0
	case OpBLTZ:
		r.Taken = a < 0
	case OpBGEZ:
		r.Taken = a >= 0

	case OpJ:
		r.Taken = true
		r.Target = in.Target
	case OpJAL:
		r.Taken = true
		r.Target = in.Target
		r.I = int32(ops.PC + 4)
	case OpJR:
		r.Taken = true
		r.Target = uint32(a)
	case OpJALR:
		r.Taken = true
		r.Target = uint32(a)
		r.I = int32(ops.PC + 4)

	case OpADDD:
		r.F = fa + fb
	case OpSUBD:
		r.F = fa - fb
	case OpMULD:
		r.F = fa * fb
	case OpDIVD:
		r.F = fa / fb
	case OpNEGD:
		r.F = -fa
	case OpABSD:
		r.F = math.Abs(fa)
	case OpMOVD:
		r.F = fa
	case OpCVTIF:
		r.F = float64(a)
	case OpCVTFI:
		r.I = truncToInt32(fa)
	case OpCLTD:
		r.I = boolToInt(fa < fb)
	case OpCLED:
		r.I = boolToInt(fa <= fb)
	case OpCEQD:
		r.I = boolToInt(fa == fb)

	case OpHALT:
		r.Halt = true
	case OpNOP:
	}
	if in.Op.Info().Class == ClassBranch && r.Taken {
		r.Target = in.BranchTarget(ops.PC)
	}
	return r
}

// EffAddr is the effective address of a load or store whose base register
// (rs) holds base. Eval uses it for every memory operation; the pipeline
// calls it directly where only the address is needed.
func EffAddr(in Inst, base int32) uint32 { return uint32(base + in.Imm) }

func boolToInt(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// truncToInt32 converts a double to int32 with saturation on overflow and
// zero on NaN, mirroring common hardware behaviour.
func truncToInt32(f float64) int32 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt32:
		return math.MaxInt32
	case f <= math.MinInt32:
		return math.MinInt32
	}
	return int32(f)
}
