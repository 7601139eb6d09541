package rendezvous

import (
	"testing"

	"repro/uxs"
)

func TestSaturatingArithmetic(t *testing.T) {
	if satAdd(1, 2) != 3 || satMul(6, 7) != 42 {
		t.Fatal("basic arithmetic broken")
	}
	if satAdd(RoundCap-1, 5) != RoundCap {
		t.Fatal("satAdd does not saturate")
	}
	if satMul(RoundCap/2, 3) != RoundCap {
		t.Fatal("satMul does not saturate")
	}
	if satMul(0, RoundCap) != 0 || satMul(RoundCap, 0) != 0 {
		t.Fatal("satMul zero broken")
	}
	if satPow(2, 100) != RoundCap {
		t.Fatal("satPow does not saturate")
	}
	if satPow(3, 4) != 81 {
		t.Fatal("satPow wrong")
	}
	if satPow(5, 0) != 1 {
		t.Fatal("satPow zero exponent wrong")
	}
}

func TestPathBudget(t *testing.T) {
	if PathBudget(2, 5) != 1 {
		t.Fatal("K2 path budget should be 1")
	}
	if PathBudget(4, 3) != 27 {
		t.Fatalf("PathBudget(4,3) = %d", PathBudget(4, 3))
	}
	if PathBudget(100, 100) != RoundCap {
		t.Fatal("huge path budget should saturate")
	}
}

func TestSymmRVTimeMatchesLemma33(t *testing.T) {
	// T(n,d,δ) = (d+δ)(n-1)^d (M+2) + 2(M+1) with M = |Y(n)|.
	for _, c := range []struct{ n, d, delta uint64 }{
		{2, 1, 1}, {2, 1, 3}, {4, 2, 2}, {5, 2, 4}, {6, 3, 3},
	} {
		m := uint64(uxs.DefaultLength(int(c.n)))
		pow := uint64(1)
		for i := uint64(0); i < c.d; i++ {
			pow *= c.n - 1
		}
		want := (c.d+c.delta)*pow*(m+2) + 2*(m+1)
		if got := SymmRVTime(c.n, c.d, c.delta); got != want {
			t.Fatalf("T(%d,%d,%d) = %d, want %d", c.n, c.d, c.delta, got, want)
		}
	}
}

func TestViewWalkTime(t *testing.T) {
	// n=4: 2 * (3 + 9 + 27) = 78.
	if got := ViewWalkTimeDepth(4, 3); got != 78 {
		t.Fatalf("ViewWalkTimeDepth(4, 3) = %d, want 78", got)
	}
	if ViewWalkTimeDepth(2, 1) != 2 {
		t.Fatalf("ViewWalkTimeDepth(2, 1) = %d, want 2", ViewWalkTimeDepth(2, 1))
	}
}

func TestActiveRepeats(t *testing.T) {
	trt := UXSRoundTrip(4)
	if r := ActiveRepeats(4, 0); r != 2 {
		t.Fatalf("R(4,0) = %d, want 2", r)
	}
	if r := ActiveRepeats(4, trt); r != 3 {
		t.Fatalf("R(4,T_rt) = %d, want 3", r)
	}
	if r := ActiveRepeats(4, trt+1); r != 4 {
		t.Fatalf("R(4,T_rt+1) = %d, want 4", r)
	}
	// The defining inequality: R * T_rt >= δ + 2*T_rt.
	for _, delta := range []uint64{0, 1, 100, 12345} {
		if ActiveRepeats(4, delta)*trt < delta+2*trt {
			t.Fatalf("slot length too short for δ=%d", delta)
		}
	}
}

func TestPhaseTime(t *testing.T) {
	v := universalVariant
	if v.phaseTime(3, 3, 5) != 0 || v.phaseTime(2, 5, 1) != 0 {
		t.Fatal("skipped phases must cost zero rounds")
	}
	// d < n, δ < d: AsymmRV only.
	if got, want := v.phaseTime(3, 2, 1), 2*AsymmRVTime(3, 1); got != want {
		t.Fatalf("phaseTime asymm-only = %d, want %d", got, want)
	}
	// d < n, δ >= d: AsymmRV + SymmRV.
	if got, want := v.phaseTime(3, 2, 2), 2*AsymmRVTime(3, 2)+SymmRVTime(3, 2, 2); got != want {
		t.Fatalf("phaseTime full = %d, want %d", got, want)
	}
	// The §4 variant never runs SymmRV; the fast one swaps the asymmetric
	// procedure.
	if got, want := asymmOnlyVariant.phaseTime(3, 2, 2), 2*AsymmRVTime(3, 2); got != want {
		t.Fatalf("asymm-only phaseTime = %d, want %d", got, want)
	}
	if got, want := fastVariant.phaseTime(3, 2, 2), 2*AsymmRVIDTime(3, 2)+SymmRVTime(3, 2, 2); got != want {
		t.Fatalf("fast phaseTime = %d, want %d", got, want)
	}
}

func TestUniversalRVTimeBoundGrowth(t *testing.T) {
	// Proposition 4.1's O(n+δ)^O(n+δ): the bound must explode quickly but
	// stay finite (below saturation) for tiny parameters.
	small := UniversalRVTimeBound(2, 1, 1)
	if small == 0 || small >= RoundCap {
		t.Fatalf("bound for K2/δ=1 out of range: %d", small)
	}
	bigger := UniversalRVTimeBound(4, 2, 2)
	if bigger <= small {
		t.Fatal("bound not increasing")
	}
	if UniversalRVTimeBound(30, 10, 10) != RoundCap {
		t.Fatal("large parameters should saturate the bound")
	}
}

func TestEncodingBitBudgetCoversRealEncodings(t *testing.T) {
	// The schedule budget must dominate the actual encoding bit length for
	// every graph of size <= n (checked for representative families in
	// rv_test.go's duration tests; here just sanity on magnitudes).
	if EncodingBitBudgetDepth(2, 1) < 8*8 {
		t.Fatal("K(2) implausibly small")
	}
	if EncodingBitBudgetDepth(4, 3) <= EncodingBitBudgetDepth(3, 2) {
		t.Fatal("K not increasing")
	}
	// UniversalRV's n = 1 phases play one node's worth of slots.
	if got := EncodingBitBudgetDepth(1, 0); got != encBytesPerNode*8 {
		t.Fatalf("K(1) = %d, want %d", got, encBytesPerNode*8)
	}
}
