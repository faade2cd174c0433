// Package flightrec is the simulator's time-travel debugger back end. A
// recording is one file: a manifest naming the cell that ran (its
// cell.Spec, or inline assembly), fingerprints of its config and program,
// and, once the run ends, the cycle it stopped at. Nothing is attached to
// the machine while it runs.
//
// The simulator is deterministic, chaos PRNG stream included, so the
// manifest is the whole run. Load re-simulates it once from cycle 0 with a
// telemetry tracer attached, which rebuilds the run's complete event
// timeline, and a Session reaches any cycle by replay: a seek forward steps
// the live machine, a seek backward re-runs a fresh machine from cycle 0
// under the lockstep invariant checker. Every paper cell is short — the
// largest, btrix at IQ 32, runs in well under a second — so a replay from
// cycle 0 costs less than typing the next debugger command.
//
// A run that crashes or aborts leaves its directory behind as a
// post-mortem artifact that cmd/reusedbg opens cold.
package flightrec

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"reuseiq/internal/pipeline"
	"reuseiq/internal/snapshot"
)

// ManifestName is the manifest file inside a recorder directory.
const ManifestName = "manifest.json"

// Start writes dir's manifest for a run of m that is about to begin: man's
// workload plus fingerprints of m's config and program. The manifest stays
// unstamped (final_cycle 0) until Stamp, so a run that never gets there
// leaves a crash artifact.
func Start(dir string, man Manifest, m *pipeline.Machine) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("flightrec: %w", err)
	}
	man.FinalCycle, man.Halted = 0, false
	return writeManifest(dir, man, m)
}

// Stamp rewrites dir's manifest with the cycle m stopped at and whether it
// halted. Call once, after the run stops, normally or not.
func Stamp(dir string, man Manifest, m *pipeline.Machine) error {
	man.FinalCycle, man.Halted = m.Cycle(), m.Halted()
	return writeManifest(dir, man, m)
}

// writeManifest persists man, fingerprinted with m's config and program,
// atomically.
func writeManifest(dir string, man Manifest, m *pipeline.Machine) error {
	man.ConfigHash = fmt.Sprintf("%016x", snapshot.ConfigHash(m.Cfg))
	man.ProgramHash = fmt.Sprintf("%016x", snapshot.ProgramHash(m.Prog))
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("flightrec: %w", err)
	}
	data = append(data, '\n')
	tmp := filepath.Join(dir, ManifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("flightrec: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		return fmt.Errorf("flightrec: %w", err)
	}
	return nil
}
