// Snapshot support: an exported state image of the branch predictor with a
// validating importer.
package bpred

import "fmt"

// BTBLineState is the serializable image of one BTB entry.
type BTBLineState struct {
	Valid  bool
	Tag    uint32
	Target uint32
	LRU    uint64
}

// State is the serializable image of a Predictor.
type State struct {
	Bimod  []uint8
	BTB    []BTBLineState // sets*ways, set-major
	RAS    []uint32
	RASTop int
	RASCnt int
	Stamp  uint64

	Lookups, Updates, BTBLookups, BTBUpdates, RASOps uint64
}

// ExportState returns a deep copy of the predictor's state.
func (p *Predictor) ExportState() State {
	st := State{
		Bimod:   append([]uint8(nil), p.bimod...),
		BTB:     make([]BTBLineState, 0, p.cfg.BTBSets*p.cfg.BTBWays),
		RAS:     append([]uint32(nil), p.ras...),
		RASTop:  p.rasTop,
		RASCnt:  p.rasCnt,
		Stamp:   p.stamp,
		Lookups: p.Lookups, Updates: p.Updates,
		BTBLookups: p.BTBLookups, BTBUpdates: p.BTBUpdates, RASOps: p.RASOps,
	}
	for _, set := range p.btb {
		for _, e := range set {
			st.BTB = append(st.BTB, BTBLineState{Valid: e.valid, Tag: e.tag, Target: e.target, LRU: e.lru})
		}
	}
	return st
}

// ImportState overwrites the predictor with st after validating its shape
// against the predictor's configuration.
func (p *Predictor) ImportState(st State) error {
	if len(st.Bimod) != len(p.bimod) {
		return fmt.Errorf("bpred: state bimod sized %d, predictor has %d", len(st.Bimod), len(p.bimod))
	}
	if want := p.cfg.BTBSets * p.cfg.BTBWays; len(st.BTB) != want {
		return fmt.Errorf("bpred: state BTB holds %d entries, predictor has %d", len(st.BTB), want)
	}
	if len(st.RAS) != len(p.ras) {
		return fmt.Errorf("bpred: state RAS sized %d, predictor has %d", len(st.RAS), len(p.ras))
	}
	if st.RASTop < 0 || (st.RASTop >= len(p.ras) && !(st.RASTop == 0 && len(p.ras) == 0)) {
		return fmt.Errorf("bpred: state RAS top %d for stack of size %d", st.RASTop, len(p.ras))
	}
	if st.RASCnt < 0 || st.RASCnt > len(p.ras) {
		return fmt.Errorf("bpred: state RAS count %d for stack of size %d", st.RASCnt, len(p.ras))
	}
	copy(p.bimod, st.Bimod)
	i := 0
	for _, set := range p.btb {
		for w := range set {
			e := st.BTB[i]
			set[w] = btbEntry{valid: e.Valid, tag: e.Tag, target: e.Target, lru: e.LRU}
			i++
		}
	}
	copy(p.ras, st.RAS)
	p.rasTop, p.rasCnt, p.stamp = st.RASTop, st.RASCnt, st.Stamp
	p.Lookups, p.Updates = st.Lookups, st.Updates
	p.BTBLookups, p.BTBUpdates, p.RASOps = st.BTBLookups, st.BTBUpdates, st.RASOps
	return nil
}
