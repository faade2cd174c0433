// Package snapshot serializes a running pipeline.Machine to a compact,
// versioned, checksummed binary image and restores it to a machine whose
// subsequent execution is bit-identical to one that never stopped.
//
// The wire format is little-endian fixed-width with a fixed section order:
//
//	magic "REUSEIQS" | version u32 | flags u32 | cfgHash u64 | progHash u64
//	| tagged sections (machine, memory, rename, rob, lsq, iq, controller,
//	  hierarchy, bpred, fu, chaos, loop cache) | end tag | crc32(IEEE)
//
// The trailing CRC covers every byte from the magic through the end tag and
// is itself excluded from the sum. Restore validates structure as it decodes
// — every variable-length field is bounded by the machine configuration the
// caller supplies, so corrupt or adversarial images fail with an error (never
// a panic or an unbounded allocation) — and pipeline.Resume then re-validates
// cross-component invariants before the machine is handed back.
//
// Snapshots embed fingerprints of the configuration and program they were
// taken under; Restore refuses (ErrFingerprint) to load an image into a
// mismatched machine, because the image stores only sized state, not the
// configuration itself.
package snapshot

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"reuseiq/internal/altfe"
	"reuseiq/internal/bpred"
	"reuseiq/internal/chaos"
	"reuseiq/internal/core"
	"reuseiq/internal/fu"
	"reuseiq/internal/mem"

	"reuseiq/internal/pipeline"
	"reuseiq/internal/prog"
)

// Magic identifies a snapshot stream.
const Magic = "REUSEIQS"

// Version is the wire format version. Bump on any incompatible layout
// change; Restore rejects other versions with ErrVersion.
const Version uint32 = 2

// Sentinel errors, matchable with errors.Is through the wrapped chain.
var (
	// ErrFormat marks a stream that is not a snapshot at all (bad magic).
	ErrFormat = errors.New("snapshot: bad magic (not a snapshot stream)")
	// ErrVersion marks a snapshot from an incompatible format version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrChecksum marks a snapshot whose body fails CRC verification.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrFingerprint marks a snapshot taken under a different machine
	// configuration or program than the one supplied to Restore.
	ErrFingerprint = errors.New("snapshot: config/program fingerprint mismatch")
)

// configFingerprint is the view of pipeline.Config that ConfigHash prints.
// It pins the original field set and order so the hash stays stable when
// Config grows fields that cannot affect modeled state. Extend this struct
// only for fields that change simulated behavior.
type configFingerprint struct {
	FetchWidth, DecodeWidth, IssueWidth, CommitWidth, FetchQueueSize int
	IQSize, ROBSize, LSQSize                                         int
	IntPhysRegs, FPPhysRegs                                          int
	MispredictPenalty                                                int
	Mem                                                              mem.HierarchyConfig
	Bpred                                                            bpred.Config
	FU                                                               fu.Config
	Reuse                                                            core.Config
	LoopCache                                                        *altfe.LoopCacheConfig
	Chaos                                                            chaos.Config
	MaxCycles, WatchdogCycles                                        uint64
}

// ConfigHash fingerprints a machine configuration. It normalizes first, so
// a config and its defaulted form hash identically, and flattens the
// LoopCache pointer (hashing presence plus pointee) so the hash depends only
// on values, never addresses.
//
//reuse:deterministic
func ConfigHash(cfg pipeline.Config) uint64 {
	c := cfg.Normalized()
	v := configFingerprint{
		FetchWidth: c.FetchWidth, DecodeWidth: c.DecodeWidth,
		IssueWidth: c.IssueWidth, CommitWidth: c.CommitWidth,
		FetchQueueSize: c.FetchQueueSize,
		IQSize:         c.IQSize, ROBSize: c.ROBSize, LSQSize: c.LSQSize,
		IntPhysRegs: c.IntPhysRegs, FPPhysRegs: c.FPPhysRegs,
		MispredictPenalty: c.MispredictPenalty,
		Mem:               c.Mem, Bpred: c.Bpred, FU: c.FU, Reuse: c.Reuse,
		Chaos:     c.Chaos,
		MaxCycles: c.MaxCycles, WatchdogCycles: c.WatchdogCycles,
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|lc=%v", v, c.LoopCache != nil)
	if c.LoopCache != nil {
		fmt.Fprintf(h, "|%v", *c.LoopCache)
	}
	return h.Sum64()
}

// ProgramHash fingerprints a program's text and entry point. The initial
// data image is deliberately excluded: the snapshot carries the full
// architectural memory, so initial data never influences a restored run.
//
//reuse:deterministic
func ProgramHash(p *prog.Program) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v uint32) {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		h.Write(buf[:])
	}
	put(p.Entry)
	put(uint32(len(p.Words)))
	for _, w := range p.Words {
		put(w)
	}
	return h.Sum64()
}

// Save writes a snapshot of m. The machine must be between cycles (Save is
// called from outside Run, or from a sampler/breaker hook, both of which run
// on cycle boundaries).
func Save(w io.Writer, m *pipeline.Machine) error {
	return Write(w, m.Snapshot(), m.Cfg, m.Prog)
}

// Write serializes an already-captured machine state. Split from Save so
// callers that captured a state earlier (e.g. a checkpoint taken mid-run and
// written after) can encode it against the config it was taken under.
//
//reuse:deterministic
func Write(w io.Writer, st *pipeline.MachineState, cfg pipeline.Config, p *prog.Program) error {
	ww := newWriter(w)
	defer ww.release()
	ww.write([]byte(Magic))
	ww.u32(Version)
	ww.u32(0) // flags: none defined in version 1
	ww.u64(ConfigHash(cfg))
	ww.u64(ProgramHash(p))
	encodeState(ww, st)
	ww.rawU32(ww.sum())
	if err := ww.flush(); err != nil {
		return fmt.Errorf("snapshot: save: %w", err)
	}
	saves.Add(1)
	return nil
}

// Restore reads a snapshot and resumes it into a new machine built from cfg
// and p, which must match the configuration and program the snapshot was
// taken under (ErrFingerprint otherwise). The returned machine's subsequent
// execution is bit-identical to the original machine had it never stopped.
func Restore(r io.Reader, cfg pipeline.Config, p *prog.Program) (*pipeline.Machine, error) {
	st, err := Decode(r, cfg, p)
	if err != nil {
		return nil, err
	}
	return pipeline.Resume(cfg, p, st)
}

// Decode reads and validates a snapshot stream without building a machine.
// Most callers want Restore; Decode exists for tools that inspect images.
func Decode(r io.Reader, cfg pipeline.Config, p *prog.Program) (*pipeline.MachineState, error) {
	rr := newReader(r)

	var magic [8]byte
	rr.read(magic[:])
	if rr.err != nil {
		return nil, rr.err
	}
	if string(magic[:]) != Magic {
		return nil, ErrFormat
	}
	if v := rr.u32(); rr.err == nil && v != Version {
		return nil, fmt.Errorf("%w: image version %d, this build reads %d", ErrVersion, v, Version)
	}
	if f := rr.u32(); rr.err == nil && f != 0 {
		return nil, fmt.Errorf("%w: unknown flags 0x%08x", ErrVersion, f)
	}
	cfgHash, progHash := rr.u64(), rr.u64()
	if rr.err != nil {
		return nil, rr.err
	}
	if want := ConfigHash(cfg); cfgHash != want {
		return nil, fmt.Errorf("%w: config hash %016x, want %016x", ErrFingerprint, cfgHash, want)
	}
	if want := ProgramHash(p); progHash != want {
		return nil, fmt.Errorf("%w: program hash %016x, want %016x", ErrFingerprint, progHash, want)
	}

	d := &dims{cfg: cfg.Normalized()}
	st := decodeState(rr, d)
	if rr.err != nil {
		return nil, rr.err
	}
	sum := rr.sum() // CRC over everything read so far, before the trailer
	if got := rr.rawU32(); rr.err == nil && got != sum {
		return nil, fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, got, sum)
	}
	if rr.err != nil {
		return nil, rr.err
	}
	restores.Add(1)
	return st, nil
}
