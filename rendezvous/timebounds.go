package rendezvous

import "repro/uxs"

// RoundCap is the saturation point for all round arithmetic in this
// package. The paper's budgets are exponential (SymmRV) and doubly
// exponential (UniversalRV); computing them must stay total, so every
// duration saturates here instead of wrapping. A run whose budget
// saturates is cut off by the simulator's round budget long before the
// saturated wait elapses — the arithmetic only needs to stay monotone.
const RoundCap = uint64(1) << 62

func satAdd(a, b uint64) uint64 {
	if a > RoundCap-b || a+b > RoundCap {
		return RoundCap
	}
	return a + b
}

func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > RoundCap/b {
		return RoundCap
	}
	return a * b
}

func satPow(base, exp uint64) uint64 {
	r := uint64(1)
	for i := uint64(0); i < exp; i++ {
		r = satMul(r, base)
		if r == RoundCap {
			return RoundCap
		}
	}
	return r
}

// UXSLength returns M, the length of the generated UXS Y(n).
func UXSLength(n uint64) uint64 { return uint64(uxs.DefaultLength(int(n))) }

// PathBudget returns (n-1)^d, the paper's bound on the number of port
// sequences of length d from any node of an n-node graph. Explore pads its
// enumeration to exactly this many iterations so that its duration is
// input-independent (see DESIGN.md, "duration padding").
func PathBudget(n, d uint64) uint64 {
	if n < 2 {
		return 1
	}
	return satPow(n-1, d)
}

// SymmRVTime returns the paper's exact duration T(n, d, δ) of Procedure
// SymmRV (Lemma 3.3):
//
//	T(n,d,δ) = (d+δ) * (n-1)^d * (M+2) + 2*(M+1)
//
// With duration padding, our implementation runs for exactly this many
// rounds (Lemma 3.3 gives it as an upper bound; equality is what keeps the
// two agents' phase clocks in lock-step inside UniversalRV).
func SymmRVTime(n, d, delta uint64) uint64 {
	m := UXSLength(n)
	per := satMul(satAdd(d, delta), PathBudget(n, d))
	return satAdd(satMul(per, satAdd(m, 2)), satMul(2, satAdd(m, 1)))
}

// pathTree bounds the tree of paths of length <= depth from a node of an
// n-node graph (n >= 2): at most sum_{i=1..depth} (n-1)^i edges, and at
// most (n-1)^depth leaves at the truncation depth.
func pathTree(n, depth uint64) (edges, leaves uint64) {
	leaves = 1
	for i := uint64(1); i <= depth; i++ {
		leaves = satMul(leaves, n-1)
		edges = satAdd(edges, leaves)
	}
	return edges, leaves
}

// ViewWalkTimeDepth returns the padded duration of the physical
// truncated-view exploration to the given depth: a DFS of the path tree
// costs two rounds per tree edge. At depth n-1 it is V(n), AsymmRV's view
// walk.
func ViewWalkTimeDepth(n, depth uint64) uint64 {
	if n < 2 {
		return 0
	}
	edges, _ := pathTree(n, depth)
	return satMul(2, edges)
}

// EncodingBitBudgetDepth returns the number of label-schedule slots of
// the sub-phase at the given depth: an upper bound on the bit length of
// the canonical encoding of any depth-truncated view of an n-node graph.
// Each view-tree or frontier node encodes in at most encBytesPerNode
// bytes, and the view has the path tree's root, a node per edge and a
// frontier '*' mark per leaf. At depth n-1 it is K(n), AsymmRV's
// schedule; for n < 2 (UniversalRV's n = 1 phases) it is one node's
// worth.
func EncodingBitBudgetDepth(n, depth uint64) uint64 {
	if n < 2 {
		return encBytesPerNode * 8
	}
	edges, leaves := pathTree(n, depth)
	return satMul(satMul(satAdd(satAdd(1, edges), leaves), encBytesPerNode), 8)
}

// encBytesPerNode bounds the encoding cost of one view node:
// "(deg,entry" + ")" with decimal numbers below n <= 10^6 in any graph the
// simulator can hold.
const encBytesPerNode = 18

// UXSRoundTrip returns T_rt(n) = 2*(M+1): the rounds of one full UXS
// application (M+1 moves) plus backtracking home along the reverse path.
func UXSRoundTrip(n uint64) uint64 {
	return satMul(2, satAdd(UXSLength(n), 1))
}

// ActiveRepeats returns R(n, δ) = ceil(δ / T_rt) + 2, the number of
// consecutive UXS round trips per active schedule slot. R*T_rt >= δ + 2*T_rt
// guarantees that an active slot overlaps the other agent's aligned passive
// slot (offset exactly δ) in a window long enough to contain one complete
// round trip, which visits every node while the passive agent sits at home.
func ActiveRepeats(n, delta uint64) uint64 {
	t := UXSRoundTrip(n)
	r := delta / t
	if delta%t != 0 {
		r++
	}
	return satAdd(r, 2)
}

// asymmSubPhaseTime returns the exact padded duration of asymmSubPhase:
// the view walk to depth plus EncodingBitBudgetDepth(n, depth) schedule
// slots of R*T_rt rounds each.
func asymmSubPhaseTime(n, depth, delta uint64) uint64 {
	slot := satMul(ActiveRepeats(n, delta), UXSRoundTrip(n))
	return satAdd(ViewWalkTimeDepth(n, depth), satMul(EncodingBitBudgetDepth(n, depth), slot))
}

// AsymmRVTime returns D_A(n, δ), the exact padded duration of AsymmRV:
// its one sub-phase, at depth n-1.
func AsymmRVTime(n, delta uint64) uint64 { return asymmSubPhaseTime(n, n-1, delta) }

// UniversalRVTimeBound returns the total rounds UniversalRV needs, counted
// from the later agent's start, to reach the end of the phase whose
// hypothesis triple is (n, d, δ) — the phase by which Theorem 3.1
// guarantees the meeting. This is the quantity Proposition 4.1 bounds by
// O(n+δ)^O(n+δ).
func UniversalRVTimeBound(n, d, delta uint64) uint64 {
	return universalVariant.timeBound(n, d, delta)
}
