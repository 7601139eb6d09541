package stic

import "fmt"

// SearchCommonWord finds a shortest single oblivious word that achieves
// rendezvous for EVERY STIC of a family sharing the same graph, the same
// earlier start U, and the same delay, but different later starts V —
// exactly the adversarial setting of Theorem 4.1, where one algorithm
// must work for all STICs [(r, v), D] with v in Z. On port-homogeneous
// graphs the result is exact over all deterministic algorithms.
//
// Because the earlier agent is identical across the family, the search
// state is (earlier position, later positions vector, action queue, met
// mask), which keeps small families on small graphs tractable. The search
// is SearchObliviousWord's BFS; Rounds is the round by which the last
// pair has met, and the search gives up after maxStates states (neither
// Found nor Exhausted).
func SearchCommonWord(family []STIC, maxStates int) (WordResult, error) {
	if len(family) == 0 {
		return WordResult{}, fmt.Errorf("stic: empty family")
	}
	g := family[0].G
	u := family[0].U
	delay := family[0].Delay
	for _, s := range family[1:] {
		if s.G != g || s.U != u || s.Delay != delay {
			return WordResult{}, fmt.Errorf("stic: family must share graph, earlier start and delay")
		}
	}
	if delay > 12 {
		return WordResult{}, fmt.Errorf("stic: delay %d too large for the common-word search (max 12)", delay)
	}
	if len(family) > maxFamily {
		return WordResult{}, fmt.Errorf("stic: family of %d too large (max %d)", len(family), maxFamily)
	}
	return searchWord(family, maxStates)
}
