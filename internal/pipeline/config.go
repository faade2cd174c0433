// Package pipeline implements the execution-driven out-of-order superscalar
// processor model of the paper's Figure 1: a seven-stage pipeline (fetch,
// decode, rename/dispatch, issue, execute, writeback, commit) built around
// the reuse-capable issue queue of internal/core. Wrong-path instructions
// are fetched, renamed and executed until the mispredicted branch resolves
// at writeback; stores update memory only at commit.
package pipeline

import (
	"reuseiq/internal/altfe"
	"reuseiq/internal/bpred"
	"reuseiq/internal/chaos"
	"reuseiq/internal/core"
	"reuseiq/internal/fu"
	"reuseiq/internal/mem"
)

// Config collects every structural parameter of the modeled processor. The
// defaults reproduce the paper's Table 1 baseline.
type Config struct {
	FetchWidth     int
	DecodeWidth    int
	IssueWidth     int
	CommitWidth    int
	FetchQueueSize int

	IQSize  int
	ROBSize int
	LSQSize int

	// IntPhysRegs/FPPhysRegs default to ROBSize + architectural registers.
	IntPhysRegs int
	FPPhysRegs  int

	// MispredictPenalty is the front-end redirect delay in cycles after a
	// misprediction resolves at writeback.
	MispredictPenalty int

	Mem   mem.HierarchyConfig
	Bpred bpred.Config
	FU    fu.Config
	Reuse core.Config

	// LoopCache, when non-nil, adds a prior-art dynamic loop cache to the
	// fetch path (for comparison experiments; normally combined with
	// Reuse.Enabled = false). A filter cache is enabled via Mem.L0I.
	LoopCache *altfe.LoopCacheConfig

	// Chaos configures deterministic fault injection (forced revokes,
	// flipped predictions, stall storms, latency jitter). Disabled by
	// default; timing-only, so architectural results are unaffected.
	Chaos chaos.Config

	// MaxCycles bounds a run (0 = DefaultMaxCycles). WatchdogCycles aborts
	// when no instruction commits for that long (0 = DefaultWatchdog).
	MaxCycles      uint64
	WatchdogCycles uint64
}

// Default simulation limits.
const (
	DefaultMaxCycles = 2_000_000_000
	DefaultWatchdog  = 100_000
)

// DefaultConfig returns the paper's Table 1 configuration with the reuse
// mechanism enabled (64-entry issue queue, 8-entry NBLT, multi-iteration
// buffering).
func DefaultConfig() Config {
	return Config{
		FetchWidth:        4,
		DecodeWidth:       4,
		IssueWidth:        4,
		CommitWidth:       4,
		FetchQueueSize:    4,
		IQSize:            64,
		ROBSize:           64,
		LSQSize:           32,
		MispredictPenalty: 2,
		Mem:               mem.DefaultHierarchy(),
		Bpred:             bpred.DefaultConfig(),
		FU:                fu.DefaultConfig(),
		Reuse:             core.Config{Enabled: true, NBLTSize: 8, Strategy: core.StrategyMulti},
	}
}

// BaselineConfig returns the conventional-issue-queue baseline: identical
// hardware with the reuse mechanism disabled.
func BaselineConfig() Config {
	c := DefaultConfig()
	c.Reuse.Enabled = false
	return c
}

// WithIQSize derives a configuration for the paper's issue-queue-size sweep:
// ROB equals the issue queue size and the load/store queue is half of it
// (paper §3).
func (c Config) WithIQSize(n int) Config {
	c.IQSize = n
	c.ROBSize = n
	c.LSQSize = n / 2
	c.IntPhysRegs = 0
	c.FPPhysRegs = 0
	return c
}

// normalized fills derived defaults.
func (c Config) normalized() Config {
	if c.IntPhysRegs == 0 {
		c.IntPhysRegs = c.ROBSize + 32
	}
	if c.FPPhysRegs == 0 {
		c.FPPhysRegs = c.ROBSize + 32
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = DefaultMaxCycles
	}
	if c.WatchdogCycles == 0 {
		c.WatchdogCycles = DefaultWatchdog
	}
	c.Reuse.IQSize = c.IQSize
	return c
}
