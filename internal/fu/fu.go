// Package fu models the function units of the paper's Table 1 configuration
// (4 integer ALUs, 1 integer multiplier/divider, 4 FP ALUs, 1 FP
// multiplier/divider) plus the data cache ports used by loads and stores.
// ALUs and the multipliers' multiply paths are pipelined; divides occupy
// their unit for the full latency.
package fu

import "reuseiq/internal/isa"

// Kind identifies a pool of identical units.
type Kind uint8

const (
	IntALU Kind = iota
	IntMul
	FPALU
	FPMul
	MemPort
	numKinds
)

func (k Kind) String() string {
	switch k {
	case IntALU:
		return "ialu"
	case IntMul:
		return "imul"
	case FPALU:
		return "fpalu"
	case FPMul:
		return "fpmul"
	case MemPort:
		return "memport"
	}
	return "?"
}

// Config gives the number of units per kind.
type Config struct {
	NumIntALU, NumIntMul, NumFPALU, NumFPMul, NumMemPort int
}

// DefaultConfig returns the paper's Table 1 function unit mix with two data
// cache ports.
func DefaultConfig() Config {
	return Config{NumIntALU: 4, NumIntMul: 1, NumFPALU: 4, NumFPMul: 1, NumMemPort: 2}
}

// OpTiming describes where an op executes and for how long. Latency comes
// first so the struct packs into 16 bytes (each predecoded instruction
// carries one).
type OpTiming struct {
	Latency   int // result latency in cycles
	Kind      Kind
	Pipelined bool // whether the unit accepts a new op next cycle
}

// Timing returns the execution timing of op. Memory-op latency here covers
// address generation only; cache latency is added by the pipeline.
func Timing(op isa.Op) OpTiming {
	switch op.Info().Class {
	case isa.ClassIntALU, isa.ClassBranch, isa.ClassJump, isa.ClassCall, isa.ClassReturn,
		isa.ClassNop, isa.ClassHalt:
		return OpTiming{Kind: IntALU, Latency: 1, Pipelined: true}
	case isa.ClassIntMul:
		if op == isa.OpMUL {
			return OpTiming{Kind: IntMul, Latency: 3, Pipelined: true}
		}
		return OpTiming{Kind: IntMul, Latency: 20, Pipelined: false} // divq/rem
	case isa.ClassFPALU:
		return OpTiming{Kind: FPALU, Latency: 2, Pipelined: true}
	case isa.ClassFPMul:
		return OpTiming{Kind: FPMul, Latency: 4, Pipelined: true}
	case isa.ClassFPDiv:
		return OpTiming{Kind: FPMul, Latency: 12, Pipelined: false}
	case isa.ClassLoad, isa.ClassStore:
		return OpTiming{Kind: MemPort, Latency: 1, Pipelined: true}
	}
	return OpTiming{Kind: IntALU, Latency: 1, Pipelined: true}
}

// Pool tracks unit occupancy cycle by cycle.
type Pool struct {
	nextFree [numKinds][]uint64
	// Ops counts operations issued per kind (power model activity).
	Ops [numKinds]uint64
}

// NewPool builds a pool from cfg.
func NewPool(cfg Config) *Pool {
	p := &Pool{}
	p.nextFree[IntALU] = make([]uint64, cfg.NumIntALU)
	p.nextFree[IntMul] = make([]uint64, cfg.NumIntMul)
	p.nextFree[FPALU] = make([]uint64, cfg.NumFPALU)
	p.nextFree[FPMul] = make([]uint64, cfg.NumFPMul)
	p.nextFree[MemPort] = make([]uint64, cfg.NumMemPort)
	return p
}

// Free returns a unit of kind k that can accept an operation at cycle now,
// or -1 when every unit of that kind is busy.
func (p *Pool) Free(k Kind, now uint64) int {
	for i, free := range p.nextFree[k] {
		if free <= now {
			return i
		}
	}
	return -1
}

// Book starts an operation with timing t on unit u, which Free returned for
// t.Kind at cycle now.
func (p *Pool) Book(t *OpTiming, u int, now uint64) {
	if t.Pipelined {
		p.nextFree[t.Kind][u] = now + 1
	} else {
		p.nextFree[t.Kind][u] = now + uint64(t.Latency)
	}
	p.Ops[t.Kind]++
}
