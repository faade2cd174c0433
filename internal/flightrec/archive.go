package flightrec

import (
	"bytes"
	"cmp"
	"encoding/json"
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

	// Outcome, stamped by Recorder.Finish.
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

// Archive is a frozen recording: everything a debugger session needs to seek.
// Build one from a live Recorder (Recorder.Archive) or from a persisted
// directory (Load).
type Archive struct {
	Man    Manifest
	Cfg    pipeline.Config
	Prog   *prog.Program
	Events []telemetry.Event // ascending by cycle (ring order)
	// End is the last cycle the recording covers: the final simulated cycle
	// for a completed run, the newest event's cycle for a recording
	// recovered from a crash.
	End    uint64
	Halted bool
}

// EventsBetween returns the retained events with from <= cycle <= to.
func (a *Archive) EventsBetween(from, to uint64) []telemetry.Event {
	lo := sort.Search(len(a.Events), func(i int) bool { return a.Events[i].Cycle >= from })
	hi := sort.Search(len(a.Events), func(i int) bool { return a.Events[i].Cycle > to })
	if lo >= hi {
		return nil
	}
	return a.Events[lo:hi]
}

// writeManifest persists a manifest atomically.
func writeManifest(dir string, man Manifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := filepath.Join(dir, ManifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, ManifestName))
}

// Load opens a persisted recording, rebuilding the machine configuration and
// program from the manifest. It is deliberately forgiving about the event
// segments — a recording left by a crashed process may have a torn event
// tail, and one written before seeks became replays may hold checkpoint
// images, which are ignored — but strict about identity: fingerprint
// mismatches are errors.
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
	a := &Archive{Man: man, Cfg: cfg, Prog: p, End: man.FinalCycle, Halted: man.Halted}

	segs, err := filepath.Glob(filepath.Join(dir, "events-*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("flightrec: %w", err)
	}
	sort.Strings(segs) // zero-padded ordinal in the name → lexical == recording order
	for _, path := range segs {
		evs, err := readSegment(path)
		if err != nil {
			return nil, err
		}
		a.Events = append(a.Events, evs...)
	}
	sort.SliceStable(a.Events, func(i, j int) bool { return a.Events[i].Cycle < a.Events[j].Cycle })
	if n := len(a.Events); n > 0 && a.Events[n-1].Cycle > a.End {
		// Crashed before Finish: the manifest still says 0. The archive
		// covers the run up to its newest event.
		a.End = a.Events[n-1].Cycle
	}
	return a, nil
}

// readSegment parses one JSONL event segment. A torn trailing line (crash
// mid-write) is tolerated; garbage anywhere else is an error.
func readSegment(path string) ([]telemetry.Event, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("flightrec: %w", err)
	}
	var out []telemetry.Event
	lines := bytes.Split(data, []byte{'\n'})
	for i, line := range lines {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		e, err := telemetry.UnmarshalEvent(line)
		if err != nil {
			if i >= len(lines)-2 { // torn tail
				break
			}
			return nil, fmt.Errorf("flightrec: %s:%d: %w", path, i+1, err)
		}
		out = append(out, e)
	}
	return out, nil
}
