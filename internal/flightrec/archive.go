package flightrec

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"reuseiq/internal/asm"
	"reuseiq/internal/cell"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/prog"
	"reuseiq/internal/snapshot"
	"reuseiq/internal/telemetry"
)

// Manifest is the persisted description of a recording: the cell that ran,
// enough to rebuild the exact machine configuration and program cold, plus
// the run's outcome. The config/program hashes let Load verify the
// reconstruction before any replay trusts it. Manifests written before seeks
// became replays also carry "interval" and "depth"; decoding ignores them.
type Manifest struct {
	// Workload identity. The program is the spec's kernel, or AsmSource
	// when the spec names none.
	cell.Spec
	AsmSource string `json:"asm_source,omitempty"`

	// Outcome, stamped by Stamp; zero while the run is in flight.
	FinalCycle uint64 `json:"final_cycle"`
	Halted     bool   `json:"halted"`

	// Fingerprints of the config/program the recording ran under, printed
	// as %016x. Load cross-checks them against the reconstruction.
	ConfigHash  string `json:"config_hash,omitempty"`
	ProgramHash string `json:"program_hash,omitempty"`
}

// legacyManifest holds the flat workload fields manifests carried before
// they embedded a cell.Spec. Zero values meant the defaults.
type legacyManifest struct {
	IQ         *int `json:"iq"` // the current format's field; absent in the legacy one
	IQSize     int  `json:"iq_size"`
	Baseline   bool `json:"baseline"`
	Distribute bool `json:"distribute"`
	NBLTSize   int  `json:"nblt_size"`
	NBLTSet    bool `json:"nblt_set"` // NBLTSize is explicit even when 0 (NBLT disabled)
}

// DecodeManifest parses a manifest in the current or the legacy flat format
// and validates the cell it names.
func DecodeManifest(data []byte) (Manifest, error) {
	var man Manifest
	var old legacyManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return Manifest{}, err
	}
	if err := json.Unmarshal(data, &old); err != nil {
		return Manifest{}, err
	}
	if old.IQ == nil {
		man.IQSize = cmp.Or(old.IQSize, pipeline.DefaultConfig().IQSize)
		man.Reuse = !old.Baseline
		man.Distributed = old.Distribute
		man.NBLTSize = cell.DefaultNBLT
		if old.NBLTSet || old.NBLTSize > 0 {
			man.NBLTSize = old.NBLTSize
		}
	}
	if (man.Kernel == "") == (man.AsmSource == "") {
		return Manifest{}, fmt.Errorf("manifest must name exactly one workload: a kernel or asm_source")
	}
	if err := man.Validate(); err != nil {
		return Manifest{}, err
	}
	return man, nil
}

// Archive is a loaded recording: everything a debugger session needs to
// seek, plus the run's whole event timeline.
type Archive struct {
	Man    Manifest
	Cfg    pipeline.Config
	Prog   *prog.Program
	Events []telemetry.Event // every event the run emitted, ascending by cycle
	// End is the last cycle the recording covers: where the re-simulation
	// stopped, which a stamped manifest's final_cycle must match.
	End    uint64
	Halted bool
}

// EventsBetween returns the events with from <= cycle <= to.
func (a *Archive) EventsBetween(from, to uint64) []telemetry.Event {
	lo := sort.Search(len(a.Events), func(i int) bool { return a.Events[i].Cycle >= from })
	hi := sort.Search(len(a.Events), func(i int) bool { return a.Events[i].Cycle > to })
	if lo >= hi {
		return nil
	}
	return a.Events[lo:hi]
}

// Load opens a recording: it rebuilds the machine configuration and
// program from the manifest, refuses a fingerprint mismatch, and
// re-simulates the run once from cycle 0 to collect its event timeline.
// A stamped manifest's run stops at its final_cycle, and must arrive there
// with the manifest's halt state, or Load reports a divergence; a run
// stopped by a check outside its cell (reusesim -verify's oracle) thus
// replays up to where that check fired. An unstamped manifest (the process
// died mid-run) runs to wherever the cell stops. Anything else in the
// directory is ignored, such as the checkpoint images and event segments
// that older recordings wrote.
func Load(dir string) (*Archive, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("flightrec: %w", err)
	}
	man, err := DecodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("flightrec: %s: %w", filepath.Join(dir, ManifestName), err)
	}
	cfg := man.Config()
	var p *prog.Program
	if man.AsmSource != "" {
		p, err = asm.Assemble(man.AsmSource)
	} else {
		p, _, err = man.Program()
	}
	if err != nil {
		return nil, fmt.Errorf("flightrec: %w", err)
	}
	if man.ConfigHash != "" {
		if got := fmt.Sprintf("%016x", snapshot.ConfigHash(cfg)); got != man.ConfigHash {
			return nil, fmt.Errorf("flightrec: %s: rebuilt config hash %s, manifest says %s (incompatible build?)", dir, got, man.ConfigHash)
		}
	}
	if man.ProgramHash != "" {
		if got := fmt.Sprintf("%016x", snapshot.ProgramHash(p)); got != man.ProgramHash {
			return nil, fmt.Errorf("flightrec: %s: rebuilt program hash %s, manifest says %s", dir, got, man.ProgramHash)
		}
	}

	m := pipeline.New(cfg, p)
	defer m.Release()
	tel := telemetry.New(telemetry.Config{})
	var events []telemetry.Event
	tel.Sink = func(e telemetry.Event) { events = append(events, e) }
	m.AttachTelemetry(tel)
	var runErr error
	if man.FinalCycle == 0 {
		runErr = m.Run()
	} else {
		runErr = m.RunBreakable(1, func() bool { return m.Cycle() >= man.FinalCycle })
	}
	if man.FinalCycle != 0 && (m.Cycle() != man.FinalCycle || m.Halted() != man.Halted) {
		err := fmt.Errorf("flightrec: %s: re-simulation diverged: it stopped at cycle %d (halted %v), the manifest says cycle %d (halted %v)",
			dir, m.Cycle(), m.Halted(), man.FinalCycle, man.Halted)
		if runErr != nil && !errors.Is(runErr, pipeline.ErrStopped) {
			err = fmt.Errorf("%w: %w", err, runErr)
		}
		return nil, err
	}
	return &Archive{Man: man, Cfg: cfg, Prog: p, Events: events, End: m.Cycle(), Halted: m.Halted()}, nil
}
