package agent

// Phase labels the procedure a program is currently executing, for wakeup
// accounting. The scheduler counts one wakeup per request it pulls from
// an agent program (sim.Session.Wakeups); tagging requests with the
// producing procedure turns that single counter into a by-procedure
// histogram, so a batching regression is diagnosable — "explore fell back
// to per-move chatter" — rather than just detectable as a bigger total.
//
// Phases are advisory: they change no semantics, only attribution. A
// request issued while no phase is set (or on a World that does not
// support tagging) counts under PhaseOther.
type Phase uint8

const (
	// PhaseOther covers everything not claimed by a specific procedure:
	// program-level bookkeeping, baselines, hand-written test programs.
	PhaseOther Phase = iota
	// PhaseViewWalk is the physical view-walk DFS (rendezvous viewWalk).
	PhaseViewWalk
	// PhaseExplore is path enumeration (rendezvous explore, d >= 1).
	PhaseExplore
	// PhaseSymmRV is the symmetric-rendezvous procedure body.
	PhaseSymmRV
	// PhaseSchedule is the label-schedule machinery of AsymmRV (UXS round
	// trips, encoding playback, padding).
	PhaseSchedule
	// PhaseCount sizes by-phase accounting arrays.
	PhaseCount
)

func (p Phase) String() string {
	switch p {
	case PhaseOther:
		return "other"
	case PhaseViewWalk:
		return "viewWalk"
	case PhaseExplore:
		return "explore"
	case PhaseSymmRV:
		return "symmRV"
	case PhaseSchedule:
		return "schedule"
	}
	return "Phase(?)"
}

// PhaseTagger is the optional World extension behind SetPhase. The
// simulator's native world implements it; reference and test worlds that
// don't simply lose attribution, never behavior.
type PhaseTagger interface {
	// SetPhase sets the phase stamped on the agent's subsequent requests
	// and returns the previous phase, so producers can restore their
	// caller's tag on exit.
	SetPhase(Phase) Phase
}

// SetPhase tags w's subsequent requests with p when the World supports
// tagging, returning the previous phase (PhaseOther otherwise). Producers
// bracket themselves with
//
//	prev := agent.SetPhase(w, agent.PhaseExplore)
//	defer agent.SetPhase(w, prev)
//
// so nested procedures attribute correctly.
func SetPhase(w World, p Phase) Phase {
	if t, ok := w.(PhaseTagger); ok {
		return t.SetPhase(p)
	}
	return PhaseOther
}
