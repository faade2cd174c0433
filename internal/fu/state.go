// Snapshot support: an exported state image of the function unit pool with a
// validating importer. The nextFree cycles are absolute, so a restored pool
// continues issuing at exactly the cycles the original would have.
package fu

import "fmt"

// NumKinds is the number of function unit kinds, exported for serializers.
const NumKinds = int(numKinds)

// State is the serializable image of a Pool.
type State struct {
	NextFree [NumKinds][]uint64
	Ops      [NumKinds]uint64
}

// ExportState returns a deep copy of the pool's state.
func (p *Pool) ExportState() State {
	var st State
	for k := range p.nextFree {
		st.NextFree[k] = append([]uint64(nil), p.nextFree[k]...)
	}
	st.Ops = p.Ops
	return st
}

// ImportState overwrites the pool with st after validating unit counts.
func (p *Pool) ImportState(st State) error {
	for k := range p.nextFree {
		if len(st.NextFree[k]) != len(p.nextFree[k]) {
			return fmt.Errorf("fu: state has %d %v units, pool has %d",
				len(st.NextFree[k]), Kind(k), len(p.nextFree[k]))
		}
	}
	for k := range p.nextFree {
		copy(p.nextFree[k], st.NextFree[k])
	}
	p.Ops = st.Ops
	return nil
}
