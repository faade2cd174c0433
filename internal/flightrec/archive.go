package flightrec

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"reuseiq/internal/asm"
	"reuseiq/internal/chaos"
	"reuseiq/internal/compiler"
	"reuseiq/internal/core"
	"reuseiq/internal/pipeline"
	"reuseiq/internal/prog"
	"reuseiq/internal/snapshot"
	"reuseiq/internal/telemetry"
	"reuseiq/internal/workloads"
)

// Manifest is the persisted description of a recording: enough workload
// identity to rebuild the exact machine configuration and program cold, plus
// the recorder's parameters and final outcome. The config/program hashes let
// Load verify the reconstruction before trusting any checkpoint image (the
// images re-verify their own embedded fingerprints on decode).
//
// The workload fields mirror the knobs reusesim and the experiment suite
// actually vary; a manifest built elsewhere can instead be ignored by loading
// with LoadWith and an explicit config/program.
type Manifest struct {
	// Workload identity: either a named kernel (optionally distributed) or
	// inline assembly source.
	Kernel     string `json:"kernel,omitempty"`
	AsmSource  string `json:"asm_source,omitempty"`
	Distribute bool   `json:"distribute,omitempty"`

	// Config knobs (zero values mean "default").
	IQSize    int    `json:"iq_size,omitempty"`
	Baseline  bool   `json:"baseline,omitempty"`
	Strategy  int    `json:"strategy,omitempty"`
	NBLTSize  int    `json:"nblt_size,omitempty"`
	NBLTSet   bool   `json:"nblt_set,omitempty"` // NBLTSize is explicit even when 0 (NBLT disabled)
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	ChaosSeed int64  `json:"chaos_seed,omitempty"`

	// Recorder parameters and outcome.
	Interval   uint64 `json:"interval"`
	Depth      int    `json:"depth"`
	FinalCycle uint64 `json:"final_cycle"`
	Halted     bool   `json:"halted"`

	// Fingerprints of the config/program the recording ran under, printed
	// as %016x. Load cross-checks them against the reconstruction.
	ConfigHash  string `json:"config_hash,omitempty"`
	ProgramHash string `json:"program_hash,omitempty"`
}

// Config rebuilds the pipeline configuration the manifest describes. The
// knob-to-config mapping matches cmd/reusesim's run() and the experiment
// suite's Run() — the two producers of recordings.
func (m Manifest) Config() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	if m.IQSize > 0 {
		cfg = pipeline.DefaultConfig().WithIQSize(m.IQSize)
	}
	cfg.Reuse.Enabled = !m.Baseline
	cfg.Reuse.Strategy = core.Strategy(m.Strategy)
	if m.NBLTSet || m.NBLTSize > 0 {
		cfg.Reuse.NBLTSize = m.NBLTSize
	}
	if m.MaxCycles > 0 {
		cfg.MaxCycles = m.MaxCycles
	}
	if m.ChaosSeed != 0 {
		cfg.Chaos = chaos.DefaultConfig(m.ChaosSeed)
	}
	return cfg
}

// Program rebuilds the program the manifest describes.
func (m Manifest) Program() (*prog.Program, error) {
	switch {
	case m.Kernel != "":
		k, ok := workloads.ByName(m.Kernel)
		if !ok {
			return nil, fmt.Errorf("flightrec: manifest names unknown kernel %q", m.Kernel)
		}
		ir := k.Prog
		if m.Distribute {
			ir = compiler.Distribute(ir)
		}
		p, _, err := compiler.Compile(ir)
		return p, err
	case m.AsmSource != "":
		return asm.Assemble(m.AsmSource)
	}
	return nil, fmt.Errorf("flightrec: manifest names no workload (neither kernel nor asm_source)")
}

// Archive is a frozen recording: everything a debugger session needs to seek.
// Build one from a live Recorder (Recorder.Archive) or from a persisted
// directory (Load).
type Archive struct {
	Man    Manifest
	Cfg    pipeline.Config
	Prog   *prog.Program
	Ckpts  []Checkpoint      // ascending by cycle, at least one
	Events []telemetry.Event // ascending by cycle (ring order)
	// End is the last cycle the recording covers: the final simulated cycle
	// for a completed run, the newest checkpoint/event cycle for a recording
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
// program from the manifest. It is deliberately forgiving about the data
// files — a recording left by a crashed process may have a torn event tail
// or a half-evicted checkpoint — but strict about identity: fingerprint
// mismatches are errors, and at least one checkpoint must decode.
func Load(dir string) (*Archive, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	cfg := man.Config()
	p, err := man.Program()
	if err != nil {
		return nil, err
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
	return loadData(dir, man, cfg, p)
}

// LoadWith opens a persisted recording against an explicit config and
// program, bypassing manifest reconstruction (for recordings of workloads
// the manifest vocabulary cannot describe). The checkpoint images still
// verify their embedded fingerprints against cfg/p.
func LoadWith(dir string, cfg pipeline.Config, p *prog.Program) (*Archive, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	return loadData(dir, man, cfg, p)
}

func readManifest(dir string) (Manifest, error) {
	var man Manifest
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return man, fmt.Errorf("flightrec: %w", err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return man, fmt.Errorf("flightrec: %s: %w", filepath.Join(dir, ManifestName), err)
	}
	return man, nil
}

func loadData(dir string, man Manifest, cfg pipeline.Config, p *prog.Program) (*Archive, error) {
	a := &Archive{Man: man, Cfg: cfg, Prog: p}

	imgs, err := filepath.Glob(filepath.Join(dir, "ckpt-*.img"))
	if err != nil {
		return nil, fmt.Errorf("flightrec: %w", err)
	}
	sort.Strings(imgs) // zero-padded cycle in the name → lexical == numeric
	var firstErr error
	for _, path := range imgs {
		st, err := decodeImage(path, cfg, p)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("flightrec: %s: %w", path, err)
			}
			continue
		}
		a.Ckpts = append(a.Ckpts, Checkpoint{Cycle: st.Cycle, State: st})
	}
	if len(a.Ckpts) == 0 {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, fmt.Errorf("flightrec: %s holds no checkpoint images", dir)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "events-*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("flightrec: %w", err)
	}
	sort.Strings(segs)
	for _, path := range segs {
		evs, err := readSegment(path)
		if err != nil {
			return nil, err
		}
		a.Events = append(a.Events, evs...)
	}
	// Drop events that predate the oldest checkpoint (their segments may be
	// partially pruned) and enforce the ascending order EventsBetween needs.
	oldest := a.Ckpts[0].Cycle
	kept := a.Events[:0]
	for _, e := range a.Events {
		if e.Cycle >= oldest {
			kept = append(kept, e)
		}
	}
	a.Events = kept
	sort.SliceStable(a.Events, func(i, j int) bool { return a.Events[i].Cycle < a.Events[j].Cycle })

	a.End = man.FinalCycle
	a.Halted = man.Halted
	if newest := a.Ckpts[len(a.Ckpts)-1].Cycle; a.End < newest {
		// Crashed before Finish: the manifest still says 0. The archive
		// covers at least the newest checkpoint and any events past it.
		a.End = newest
		if n := len(a.Events); n > 0 && a.Events[n-1].Cycle > a.End {
			a.End = a.Events[n-1].Cycle
		}
		a.Halted = a.Ckpts[len(a.Ckpts)-1].State.Halted
	}
	return a, nil
}

func decodeImage(path string, cfg pipeline.Config, p *prog.Program) (*pipeline.MachineState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return snapshot.Decode(bufio.NewReader(f), cfg, p)
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
