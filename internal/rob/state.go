// Snapshot support: an exported state image of the reorder buffer with a
// validating importer. Ring contents are copied verbatim — slots are stable
// identifiers held by issue-queue entries and the in-flight execution list,
// so the restored ring must be bit-identical, not merely equivalent.
package rob

import "fmt"

// State is the serializable image of a ROB.
type State struct {
	Ring  []Entry
	Used  []bool
	Head  int
	Count int

	Allocs, Commits uint64
}

// ExportState returns a deep copy of the buffer's state.
func (r *ROB) ExportState() State {
	return State{
		Ring:   append([]Entry(nil), r.ring...),
		Used:   append([]bool(nil), r.used...),
		Head:   r.head,
		Count:  r.count,
		Allocs: r.Allocs, Commits: r.Commits,
	}
}

// ImportState overwrites the buffer with st after validating its shape.
// Per-entry register fields are validated by the pipeline, which knows the
// physical register file sizes.
func (r *ROB) ImportState(st State) error {
	size := len(r.ring)
	if len(st.Ring) != size || len(st.Used) != size {
		return fmt.Errorf("rob: state sized %d/%d for buffer of size %d",
			len(st.Ring), len(st.Used), size)
	}
	if st.Head < 0 || st.Head >= size {
		return fmt.Errorf("rob: state head %d for buffer of size %d", st.Head, size)
	}
	if st.Count < 0 || st.Count > size {
		return fmt.Errorf("rob: state count %d for buffer of size %d", st.Count, size)
	}
	copy(r.ring, st.Ring)
	copy(r.used, st.Used)
	r.head, r.count = st.Head, st.Count
	r.Allocs, r.Commits = st.Allocs, st.Commits
	return nil
}
