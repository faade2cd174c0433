// Snapshot support: an exported state image of the rename unit with a
// validating importer. Free-list order is part of the image — Rename pops
// from the stack top, so bit-identical continuation requires the exact stack.
package rename

import (
	"fmt"

	"reuseiq/internal/isa"
)

// State is the serializable image of a RegFile.
type State struct {
	IntVals  []int32
	FPVals   []float64
	IntReady []bool
	FPReady  []bool
	IntMap   []int // len NumIntRegs
	FPMap    []int // len NumFPRegs
	IntFree  []int // stack, bottom first
	FPFree   []int

	Renames, MapReads, Reads, Writes uint64
}

// ExportState returns a deep copy of the rename unit's state.
func (r *RegFile) ExportState() State {
	return State{
		IntVals:  append([]int32(nil), r.intVals...),
		FPVals:   append([]float64(nil), r.fpVals...),
		IntReady: append([]bool(nil), r.intReady...),
		FPReady:  append([]bool(nil), r.fpReady...),
		IntMap:   append([]int(nil), r.intMap[:]...),
		FPMap:    append([]int(nil), r.fpMap[:]...),
		IntFree:  append([]int(nil), r.intFree...),
		FPFree:   append([]int(nil), r.fpFree...),
		Renames:  r.Renames, MapReads: r.MapReads, Reads: r.Reads, Writes: r.Writes,
	}
}

// ImportState overwrites the rename unit with st after validating it against
// the unit's physical register counts. Map/free-list consistency is verified
// with CheckInvariants before anything is applied.
func (r *RegFile) ImportState(st State) error {
	intPhys, fpPhys := len(r.intVals), len(r.fpVals)
	if len(st.IntVals) != intPhys || len(st.IntReady) != intPhys ||
		len(st.FPVals) != fpPhys || len(st.FPReady) != fpPhys {
		return fmt.Errorf("rename: state sized %d int / %d fp, unit has %d / %d",
			len(st.IntVals), len(st.FPVals), intPhys, fpPhys)
	}
	if len(st.IntMap) != isa.NumIntRegs || len(st.FPMap) != isa.NumFPRegs {
		return fmt.Errorf("rename: state map tables sized %d / %d", len(st.IntMap), len(st.FPMap))
	}
	if len(st.IntFree) > intPhys || len(st.FPFree) > fpPhys {
		return fmt.Errorf("rename: state free lists sized %d / %d exceed %d / %d",
			len(st.IntFree), len(st.FPFree), intPhys, fpPhys)
	}
	check := func(kind string, vals []int, phys int) error {
		for i, p := range vals {
			if p < 0 || p >= phys {
				return fmt.Errorf("rename: state %s[%d] = p%d, want [0,%d)", kind, i, p, phys)
			}
		}
		return nil
	}
	if err := check("intMap", st.IntMap, intPhys); err != nil {
		return err
	}
	if err := check("fpMap", st.FPMap, fpPhys); err != nil {
		return err
	}
	if err := check("intFree", st.IntFree, intPhys); err != nil {
		return err
	}
	if err := check("fpFree", st.FPFree, fpPhys); err != nil {
		return err
	}
	copy(r.intVals, st.IntVals)
	copy(r.fpVals, st.FPVals)
	copy(r.intReady, st.IntReady)
	copy(r.fpReady, st.FPReady)
	copy(r.intMap[:], st.IntMap)
	copy(r.fpMap[:], st.FPMap)
	r.intFree = append(r.intFree[:0], st.IntFree...)
	r.fpFree = append(r.fpFree[:0], st.FPFree...)
	r.Renames, r.MapReads, r.Reads, r.Writes = st.Renames, st.MapReads, st.Reads, st.Writes
	return r.CheckInvariants()
}
