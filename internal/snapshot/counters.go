// Process-wide snapshot activity counters. Snapshots are encoded and decoded
// from many layers (reusesim checkpoints, the experiment journal, the flight
// recorder) — a single pair of process-wide counters is what an operator
// watching /status or /metrics wants: "is this run snapshotting, and how
// often". Atomics, because sweeps encode from many goroutines at once.
package snapshot

import (
	"sync/atomic"

	"reuseiq/internal/telemetry"
)

var (
	saves    atomic.Uint64
	restores atomic.Uint64
)

// Counters returns the number of snapshot images successfully encoded
// (Write/Save) and successfully decoded (Decode/Restore) by this process.
func Counters() (savesN, restoresN uint64) {
	return saves.Load(), restores.Load()
}

// RegisterMetrics registers the process-wide save/restore counters with r.
func RegisterMetrics(r *telemetry.Registry) {
	r.Counter("snapshot.saves", saves.Load)
	r.Counter("snapshot.restores", restores.Load)
}
