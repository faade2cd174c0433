// Snapshot support: exported state images of the caches, TLBs and the whole
// hierarchy, with validating importers. LRU stamps are copied verbatim so a
// restored cache evicts exactly the lines the original would have.
package mem

import "fmt"

// LineState is the serializable image of one cache line.
type LineState struct {
	Valid bool
	Dirty bool
	Tag   uint32
	LRU   uint64
}

// CacheState is the serializable image of a Cache: all lines flattened
// row-major (set-major, way-minor) plus the LRU stamp and activity counters.
type CacheState struct {
	Lines []LineState
	Stamp uint64

	Accesses, Misses, Writebacks uint64
}

// ExportState returns a deep copy of the cache's state.
func (c *Cache) ExportState() CacheState {
	st := CacheState{
		Lines:    make([]LineState, 0, c.cfg.Sets*c.cfg.Ways),
		Stamp:    c.stamp,
		Accesses: c.Accesses, Misses: c.Misses, Writebacks: c.Writebacks,
	}
	for _, set := range c.sets {
		for _, l := range set {
			st.Lines = append(st.Lines, LineState{Valid: l.valid, Dirty: l.dirty, Tag: l.tag, LRU: l.lru})
		}
	}
	return st
}

// ImportState overwrites the cache with st after validating its shape
// against the cache's geometry.
func (c *Cache) ImportState(st CacheState) error {
	want := c.cfg.Sets * c.cfg.Ways
	if len(st.Lines) != want {
		return fmt.Errorf("mem: %s state holds %d lines, cache has %d", c.cfg.Name, len(st.Lines), want)
	}
	i := 0
	for _, set := range c.sets {
		for w := range set {
			l := st.Lines[i]
			set[w] = line{valid: l.Valid, dirty: l.Dirty, tag: l.Tag, lru: l.LRU}
			i++
		}
	}
	c.stamp = st.Stamp
	c.Accesses, c.Misses, c.Writebacks = st.Accesses, st.Misses, st.Writebacks
	return nil
}

// ExportState returns the TLB's state (its inner tag cache).
func (t *TLB) ExportState() CacheState { return t.cache.ExportState() }

// ImportState restores the TLB's state.
func (t *TLB) ImportState(st CacheState) error { return t.cache.ImportState(st) }

// HierarchyState is the serializable image of the whole memory hierarchy.
type HierarchyState struct {
	L1I, L1D, L2 CacheState
	HasL0I       bool
	L0I          CacheState
	ITLB, DTLB   CacheState

	L2WritebackAccesses uint64
}

// ExportState returns a deep copy of the hierarchy's state.
func (h *Hierarchy) ExportState() HierarchyState {
	st := HierarchyState{
		L1I:  h.L1I.ExportState(),
		L1D:  h.L1D.ExportState(),
		L2:   h.L2.ExportState(),
		ITLB: h.ITLB.ExportState(),
		DTLB: h.DTLB.ExportState(),

		L2WritebackAccesses: h.L2WritebackAccesses,
	}
	if h.L0I != nil {
		st.HasL0I = true
		st.L0I = h.L0I.ExportState()
	}
	return st
}

// ImportState overwrites the hierarchy with st. The filter-cache presence
// must match the configuration the hierarchy was built with.
func (h *Hierarchy) ImportState(st HierarchyState) error {
	if st.HasL0I != (h.L0I != nil) {
		return fmt.Errorf("mem: state filter cache presence %v, hierarchy has %v", st.HasL0I, h.L0I != nil)
	}
	if err := h.L1I.ImportState(st.L1I); err != nil {
		return err
	}
	if err := h.L1D.ImportState(st.L1D); err != nil {
		return err
	}
	if err := h.L2.ImportState(st.L2); err != nil {
		return err
	}
	if h.L0I != nil {
		if err := h.L0I.ImportState(st.L0I); err != nil {
			return err
		}
	}
	if err := h.ITLB.ImportState(st.ITLB); err != nil {
		return err
	}
	if err := h.DTLB.ImportState(st.DTLB); err != nil {
		return err
	}
	h.L2WritebackAccesses = st.L2WritebackAccesses
	return nil
}
