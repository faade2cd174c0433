// Snapshot support: an exported state image of the load/store queue with a
// validating importer.
package lsq

import "fmt"

// State is the serializable image of an LSQ.
type State struct {
	Ring  []Entry
	Head  int
	Count int

	Allocs, Searches, Forwards, ConflictStalls uint64
}

// ExportState returns a deep copy of the queue's state.
func (q *LSQ) ExportState() State {
	return State{
		Ring:   append([]Entry(nil), q.ring...),
		Head:   q.head,
		Count:  q.count,
		Allocs: q.Allocs, Searches: q.Searches,
		Forwards: q.Forwards, ConflictStalls: q.ConflictStalls,
	}
}

// ImportState overwrites the queue with st after validating its shape.
func (q *LSQ) ImportState(st State) error {
	size := len(q.ring)
	if len(st.Ring) != size {
		return fmt.Errorf("lsq: state sized %d for queue of size %d", len(st.Ring), size)
	}
	if st.Head < 0 || st.Head >= size {
		return fmt.Errorf("lsq: state head %d for queue of size %d", st.Head, size)
	}
	if st.Count < 0 || st.Count > size {
		return fmt.Errorf("lsq: state count %d for queue of size %d", st.Count, size)
	}
	copy(q.ring, st.Ring)
	q.head, q.count = st.Head, st.Count
	q.resolved = 0
	q.Allocs, q.Searches = st.Allocs, st.Searches
	q.Forwards, q.ConflictStalls = st.Forwards, st.ConflictStalls
	return nil
}
