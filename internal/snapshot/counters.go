// Process-wide snapshot activity counters. Snapshots are encoded and decoded
// by the experiment journal's mid-cell checkpoints and by cmd/ckptcheck; a
// single pair of process-wide counters answers "is this process
// snapshotting, and how often" (perfbench reads them). Atomics, because
// sweeps encode from many goroutines at once.
package snapshot

import "sync/atomic"

var (
	saves    atomic.Uint64
	restores atomic.Uint64
)

// Counters returns the number of snapshot images successfully encoded
// (Write/Save) and successfully decoded (Decode/Restore) by this process.
func Counters() (savesN, restoresN uint64) {
	return saves.Load(), restores.Load()
}
