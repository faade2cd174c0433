// Package cell names one simulation: a kernel in one source variant on one
// machine configuration, with its chaos seed and cycle budget. Spec is the
// only mapping from those knobs to a pipeline.Config and a compiled program;
// the experiment suite, its journal, the run ledger, the flight-recorder
// manifest and reusesim all carry it.
package cell

import (
	"fmt"
	"strings"

	"reuseiq/internal/altfe"
	"reuseiq/internal/chaos"
	"reuseiq/internal/compiler"
	"reuseiq/internal/core"
	"reuseiq/internal/mem"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/prog"
	"reuseiq/internal/workloads"
)

// DefaultNBLT is the paper's non-bufferable loop table size.
const DefaultNBLT = 8

// FrontEnd selects an alternate front-end power mechanism (extension X1).
type FrontEnd uint8

const (
	NoFrontEnd  FrontEnd = iota // the paper's plain front end
	FilterCache                 // a 512-byte L0 instruction filter cache
	LoopCache                   // a 32-entry dynamic loop cache
)

// frontEndNames suffix the names of specs with an alternate front end.
var frontEndNames = [...]string{NoFrontEnd: "", FilterCache: "filter", LoopCache: "loopcache"}

// Spec names one simulation. It is comparable, so it keys caches, and its
// JSON form is the run ledger's identity fields: journal lines, ledger
// records and flight-recorder manifests all embed it.
type Spec struct {
	Kernel      string `json:"kernel,omitempty"` // empty when the program is assembly supplied beside the spec
	IQSize      int    `json:"iq"`               // issue queue entries; ROB = IQSize, LSQ = IQSize/2
	Reuse       bool   `json:"reuse"`
	Distributed bool   `json:"dist,omitempty"`   // loop-distribute the kernel first
	Unroll      int    `json:"unroll,omitempty"` // software-unroll factor; 0 means none
	// Strategy and NBLTSize configure the reuse mechanism; a baseline
	// machine carries them unused. NBLTSize -1 means DefaultNBLT.
	Strategy  core.Strategy `json:"strategy,omitempty"`
	NBLTSize  int           `json:"nblt"`
	FrontEnd  FrontEnd      `json:"frontend,omitempty"`
	ChaosSeed int64         `json:"chaos_seed,omitempty"` // 0 disables fault injection
	MaxCycles uint64        `json:"max_cycles,omitempty"` // 0 means pipeline.DefaultMaxCycles
}

// Normalized resolves the defaults a caller may leave symbolic (NBLTSize -1),
// so two specs naming the same cell compare equal.
func (s Spec) Normalized() Spec {
	if s.NBLTSize < 0 {
		s.NBLTSize = DefaultNBLT
	}
	return s
}

// ProgramID is the part of the spec that selects the program: specs with
// equal ProgramIDs run the same compiled code.
func (s Spec) ProgramID() Spec {
	return Spec{Kernel: s.Kernel, Distributed: s.Distributed, Unroll: s.Unroll}
}

// Validate reports a spec that names no buildable cell. Config and Program
// assume a valid spec.
func (s Spec) Validate() error {
	switch {
	case s.IQSize < 2:
		return fmt.Errorf("issue queue size %d: need at least 2 (the load/store queue is half of it)", s.IQSize)
	case s.Unroll < 0:
		return fmt.Errorf("unroll factor %d is negative", s.Unroll)
	case s.Kernel == "" && (s.Distributed || s.Unroll > 0):
		return fmt.Errorf("loop distribution and unrolling transform a kernel; assembly runs as written")
	case s.NBLTSize < -1:
		return fmt.Errorf("NBLT size %d is negative", s.NBLTSize)
	case s.Strategy > core.StrategySingle:
		return fmt.Errorf("unknown buffering strategy %d", s.Strategy)
	case s.FrontEnd > LoopCache:
		return fmt.Errorf("unknown front end %d", s.FrontEnd)
	}
	if s.Kernel != "" {
		if _, ok := workloads.ByName(s.Kernel); !ok {
			return fmt.Errorf("unknown kernel %q", s.Kernel)
		}
	}
	return nil
}

// Config builds the spec's machine: the paper's Table 1 configuration at
// IQSize, with the reuse mechanism, front end, chaos seed and cycle budget
// the spec names.
func (s Spec) Config() pipeline.Config {
	cfg := pipeline.DefaultConfig().WithIQSize(s.IQSize)
	cfg.Reuse.Enabled = s.Reuse
	cfg.Reuse.Strategy = s.Strategy
	cfg.Reuse.NBLTSize = s.Normalized().NBLTSize
	switch s.FrontEnd {
	case NoFrontEnd:
	case FilterCache:
		cfg.Mem.L0I = mem.DefaultFilterCache()
	case LoopCache:
		cfg.LoopCache = &altfe.LoopCacheConfig{Entries: 32}
	}
	if s.ChaosSeed != 0 {
		cfg.Chaos = chaos.DefaultConfig(s.ChaosSeed)
	}
	cfg.MaxCycles = s.MaxCycles
	return cfg
}

// Program compiles the spec's kernel in its source variant and returns the
// program with its generated assembly.
func (s Spec) Program() (*prog.Program, string, error) {
	k, ok := workloads.ByName(s.Kernel)
	if !ok {
		return nil, "", fmt.Errorf("unknown kernel %q", s.Kernel)
	}
	ir := k.Prog
	if s.Distributed {
		ir = compiler.Distribute(ir)
	}
	if s.Unroll > 0 {
		ir = compiler.Unroll(ir, s.Unroll)
	}
	return compiler.Compile(ir)
}

// Form selects how Name renders a spec.
type Form uint8

const (
	Label          Form = iota // "adi iq=64 reuse dist": live sweep state and errors
	RecorderDir                // "adi-iq64-reusetrue-disttrue-s0-n8": a flight-recorder directory
	CheckpointFile             // "adi_iq64_rtrue_dtrue_s0_n8.ckpt": a journal checkpoint
)

// Name renders the spec in the given form. Unrolling and the front end,
// which the paper's cells leave unset, are appended only when set.
func (s Spec) Name(f Form) string {
	s = s.Normalized()
	var name, sep string
	switch f {
	case Label:
		name, sep = fmt.Sprintf("%s iq=%d", s.Kernel, s.IQSize), " "
		if s.Reuse {
			name += " reuse"
		}
		if s.Distributed {
			name += " dist"
		}
	case RecorderDir:
		name, sep = fmt.Sprintf("%s-iq%d-reuse%v-dist%v-s%d-n%d", s.Kernel, s.IQSize, s.Reuse, s.Distributed, s.Strategy, s.NBLTSize), "-"
	case CheckpointFile:
		name, sep = fmt.Sprintf("%s_iq%d_r%v_d%v_s%d_n%d", sanitize(s.Kernel), s.IQSize, s.Reuse, s.Distributed, s.Strategy, s.NBLTSize), "_"
	}
	if s.Unroll > 0 {
		name += fmt.Sprintf("%sunroll%d", sep, s.Unroll)
	}
	if s.FrontEnd != NoFrontEnd {
		name += sep + frontEndNames[s.FrontEnd]
	}
	if f == CheckpointFile {
		name += ".ckpt"
	}
	return name
}

// sanitize keeps a kernel name from escaping the checkpoint directory.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, s)
}
