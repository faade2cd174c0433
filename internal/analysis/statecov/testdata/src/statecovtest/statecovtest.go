// Package statecovtest seeds statecov violations: a runtime struct whose
// export/import pair drops fields in every distinct way, the transient
// waiver grammar (justified, unjustified, stale), type-level waivers, and an
// unpaired half.
package statecovtest

// nested is reached from Tracker through a covered field; its own fields
// are checked recursively.
type nested struct {
	Kept    int
	Dropped int // want `nested\.Dropped is not covered by ExportState or ImportState`
}

// opaqueCfg carries a justified type-level waiver: recursion must stop at
// it, so its never-referenced Knob field is not a finding.
//
//reuse:transient config; fingerprinted by the host, not snapshotted
type opaqueCfg struct {
	Knob int
}

// badOpaque carries an unjustified type-level waiver.
//
//reuse:transient
type badOpaque struct { // want `//reuse:transient waiver on type badOpaque has no justification`
	Knob int
}

type Tracker struct {
	both   int
	expOne int // want `Tracker\.expOne is not read by ImportState`
	impOne int // want `Tracker\.impOne is not written by ExportState`
	none   int // want `Tracker\.none is not covered by ExportState or ImportState`
	n      nested
	cfg    opaqueCfg
	bcfg   badOpaque
	//reuse:transient per-cycle scratch, rebuilt before first use
	scratch []int
	//reuse:transient
	bad int // want `//reuse:transient waiver on Tracker\.bad has no justification`
	//reuse:transient claims to be scratch
	stale int // want `stale //reuse:transient waiver: Tracker\.stale is referenced by both ExportState and ImportState`
}

type TrackerState struct {
	Both, ExpOne, ImpOne, Kept, Stale int
}

func (t *Tracker) ExportState() *TrackerState {
	t.cfg.Knob++  // validation-style touch: covers cfg on the export side
	t.bcfg.Knob++ // covers bcfg on the export side
	return &TrackerState{
		Both:   t.both,
		ExpOne: t.expOne,
		Kept:   t.n.Kept,
		Stale:  t.stale,
	}
}

func (t *Tracker) ImportState(st *TrackerState) {
	t.cfg.Knob--
	t.bcfg.Knob--
	t.both = st.Both
	t.impOne = st.ImpOne
	t.n.Kept = st.Kept
	t.stale = st.Stale
}

// Half has an export with no import: the round trip can never close.
type Half struct {
	x int
}

func (h *Half) ExportState() int { return h.x } // want `Half has export method ExportState but no matching import method`
