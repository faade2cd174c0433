// Snapshot support: an exported state image of the loop cache with a
// validating importer. The valid-PC set is serialized as a sorted slice so
// the image is deterministic regardless of map iteration order.
package altfe

import "fmt"

// LoopCacheState is the serializable image of a LoopCache.
type LoopCacheState struct {
	State    uint8
	Head     uint32
	Tail     uint32
	ValidPCs []uint32 // strictly ascending

	Supplies, Fills, Detects, Exits uint64
}

// ExportState returns a deep copy of the loop cache's state.
func (lc *LoopCache) ExportState() LoopCacheState {
	st := LoopCacheState{
		State:    uint8(lc.state),
		Head:     lc.head,
		Tail:     lc.tail,
		Supplies: lc.Supplies, Fills: lc.Fills, Detects: lc.Detects, Exits: lc.Exits,
	}
	// The loop bounds span at most cfg.Entries instructions, so walking
	// [head,tail] yields the valid set already sorted.
	if len(lc.valid) > 0 {
		for pc := lc.head; pc <= lc.tail; pc += 4 {
			if lc.valid[pc] {
				st.ValidPCs = append(st.ValidPCs, pc)
			}
		}
	}
	return st
}

// ImportState overwrites the loop cache with st after validation.
func (lc *LoopCache) ImportState(st LoopCacheState) error {
	if st.State > uint8(lcActive) {
		return fmt.Errorf("altfe: loop cache state: invalid state %d", st.State)
	}
	if len(st.ValidPCs) > lc.cfg.Entries {
		return fmt.Errorf("altfe: loop cache state: %d valid PCs for %d entries",
			len(st.ValidPCs), lc.cfg.Entries)
	}
	for i, pc := range st.ValidPCs {
		if i > 0 && pc <= st.ValidPCs[i-1] {
			return fmt.Errorf("altfe: loop cache state: valid PCs not strictly ascending at %d", i)
		}
		if pc < st.Head || pc > st.Tail {
			return fmt.Errorf("altfe: loop cache state: valid PC 0x%x outside [0x%x,0x%x]",
				pc, st.Head, st.Tail)
		}
	}
	lc.state = lcState(st.State)
	lc.head, lc.tail = st.Head, st.Tail
	clear(lc.valid)
	for _, pc := range st.ValidPCs {
		lc.valid[pc] = true
	}
	lc.Supplies, lc.Fills, lc.Detects, lc.Exits = st.Supplies, st.Fills, st.Detects, st.Exits
	return nil
}
