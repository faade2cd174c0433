package pipeline

import (
	"fmt"

	"reuseiq/internal/core"
	"reuseiq/internal/stats"
	"reuseiq/internal/telemetry"
)

// RegisterMetrics registers every counter of the machine and its components
// with the unified telemetry registry. This is the single source the CLIs
// render from: StatsSet is just RegisterMetrics + Snapshot, and an attached
// tracer contributes its histograms (reuse-session length, issue-to-commit
// latency) to the same registry.
func (m *Machine) RegisterMetrics(r *telemetry.Registry) {
	put := r.CounterVal

	put("sim.cycles", m.C.Cycles)
	put("sim.commits", m.C.Commits)
	put("sim.gated_cycles", m.C.GatedCycles)
	put("sim.mispredicts", m.C.Mispredicts)

	put("fetch.insts", m.C.Fetches)
	put("fetch.cycles", m.C.FetchCycles)
	put("decode.insts", m.C.Decodes)
	put("rename.front", m.C.FrontRenames)
	put("rename.reuse", m.C.ReuseRenames)
	put("dispatch.stall.rob", m.C.DispatchStallROB)
	put("dispatch.stall.iq", m.C.DispatchStallIQ)
	put("dispatch.stall.lsq", m.C.DispatchStallLSQ)
	put("dispatch.stall.regs", m.C.DispatchStallRegs)

	put("commit.branches", m.C.BranchesCommitted)
	put("commit.taken", m.C.TakenCommitted)
	put("commit.loads", m.C.LoadsCommitted)
	put("commit.stores", m.C.StoresCommitted)
	put("commit.reused", m.C.ReusedCommitted)

	for i, v := range reuseFields(&m.Ctl.S) {
		put(reuseNames[i], *v)
	}

	put("iq.dispatches", m.IQ.Dispatches)
	put("iq.partial_updates", m.IQ.PartialUpdates)
	put("iq.issue_reads", m.IQ.IssueReads)
	put("iq.removals", m.IQ.Removals)
	put("iq.collapses", m.IQ.Collapses)
	put("iq.wakeup_broadcasts", m.C.WakeupBroadcasts)

	put("lsq.allocs", m.LSQ.Allocs)
	put("lsq.searches", m.LSQ.Searches)
	put("lsq.forwards", m.LSQ.Forwards)
	put("lsq.conflict_stalls", m.LSQ.ConflictStalls)

	put("rob.allocs", m.ROB.Allocs)
	put("rob.commits", m.ROB.Commits)
	put("regfile.reads", m.RF.Reads)
	put("regfile.writes", m.RF.Writes)
	put("rename.map_reads", m.RF.MapReads)
	put("rename.renames", m.RF.Renames)

	put("bpred.lookups", m.BP.Lookups)
	put("bpred.updates", m.BP.Updates)
	put("bpred.btb_lookups", m.BP.BTBLookups)
	put("bpred.btb_updates", m.BP.BTBUpdates)
	put("bpred.ras_ops", m.BP.RASOps)

	put("il1.accesses", m.Hier.L1I.Accesses)
	put("il1.misses", m.Hier.L1I.Misses)
	put("dl1.accesses", m.Hier.L1D.Accesses)
	put("dl1.misses", m.Hier.L1D.Misses)
	put("dl1.writebacks", m.Hier.L1D.Writebacks)
	put("ul2.accesses", m.Hier.L2.Accesses)
	put("ul2.misses", m.Hier.L2.Misses)
	put("itlb.misses", m.Hier.ITLB.Misses())
	put("dtlb.misses", m.Hier.DTLB.Misses())
	if m.Hier.L0I != nil {
		put("il0.accesses", m.Hier.L0I.Accesses)
		put("il0.misses", m.Hier.L0I.Misses)
	}
	if m.LC != nil {
		put("loopcache.supplies", m.C.LoopCacheSupplies)
		put("loopcache.fills", m.LC.Fills)
		put("loopcache.detects", m.LC.Detects)
	}

	nblt := m.Ctl.NBLT()
	put("nblt.lookups", nblt.Lookups)
	put("nblt.hits", nblt.Hits)
	put("nblt.inserts", nblt.Inserts)

	for k := 0; k < len(m.FUs.Ops); k++ {
		put("fu."+fuKindName(k), m.FUs.Ops[k])
	}

	if m.Tel != nil {
		put("telemetry.events", m.Tel.Total())
		put("telemetry.events_dropped", m.Tel.Dropped())
		put("telemetry.sessions", uint64(len(m.Tel.Sessions())))
		r.RegisterHistogram("hist.session_cycles", &m.Tel.SessionCycles)
		r.RegisterHistogram("hist.issue_to_commit", &m.Tel.IssueToCommit)
	}
}

// reuseNames names the reuse controller's counters, in reuseFields' order.
var reuseNames = [...]string{
	"reuse.detections", "reuse.nblt_filtered", "reuse.bufferings",
	"reuse.iterations_buffered", "reuse.buffered_insts", "reuse.promotions",
	"reuse.renames", "reuse.exits", "reuse.revokes", "reuse.revokes.inner",
	"reuse.revokes.exit", "reuse.revokes.full", "reuse.revokes.recovery",
}

// reuseFields lists the core.Stats fields reuseNames names. RevokesForced
// has no metric of its own: it is the part of Revokes no reason claims.
func reuseFields(s *core.Stats) [len(reuseNames)]*uint64 {
	return [...]*uint64{
		&s.Detections, &s.NBLTFiltered, &s.Bufferings,
		&s.IterationsBuffered, &s.BufferedInsts, &s.Promotions,
		&s.ReuseRenames, &s.ReuseExits, &s.Revokes, &s.RevokesInner,
		&s.RevokesExit, &s.RevokesFull, &s.RevokesRecovery,
	}
}

// CoreStats inverts RegisterMetrics for the reuse controller: it rebuilds
// core.Stats from the reuse.* counters that counter looks up by name, and
// derives RevokesForced as Revokes minus the inner, exit, full and
// recovery counts. A missing counter is an error.
func CoreStats(counter func(name string) (uint64, bool)) (core.Stats, error) {
	var s core.Stats
	for i, v := range reuseFields(&s) {
		n, ok := counter(reuseNames[i])
		if !ok {
			return core.Stats{}, fmt.Errorf("no %s counter", reuseNames[i])
		}
		*v = n
	}
	s.RevokesForced = s.Revokes - s.RevokesInner - s.RevokesExit - s.RevokesFull - s.RevokesRecovery
	return s, nil
}

// StatsSet exports every counter of the machine and its components as an
// ordered stats.Set, for uniform text reporting and for diffing two runs.
func (m *Machine) StatsSet() *stats.Set {
	r := &telemetry.Registry{}
	m.RegisterMetrics(r)
	return r.Snapshot()
}

func fuKindName(k int) string {
	return [...]string{"ialu", "imul", "fpalu", "fpmul", "memport"}[k]
}
