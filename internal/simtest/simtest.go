// Package simtest holds the exact-equality checks shared across test
// packages, because duplicating that discipline per test file is how it
// quietly erodes.
//
// The full-equality comparators serve the differential suites: every
// engine- or transport-equivalence test in this repo requires results
// to match field for field — Meetings order, slice nil-ness, wakeup
// counts. They are generic over the result type (sim.Result,
// sim.MultiResult, dist case results), because the discipline is the
// same everywhere: reflect.DeepEqual, nothing weaker.
//
// The golden-file checks serve the tier-1 gates: the regenerated tables
// and the committed work counts (CountDeltas) must equal their files in
// testdata byte for byte.
//
// Apply is the paper's port walk α(x), the oracle the shrink and view
// tests check their walks against.
package simtest

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/graph"
	"repro/internal/obs"
)

// RequireEqualResults compares two result slices element-wise under the
// full-equality discipline, reporting the first differing index.
func RequireEqualResults[T any](t testing.TB, label string, want, got []T) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("%s: case %d mismatch:\n  want %+v\n  got  %+v", label, i, want[i], got[i])
		}
	}
}

// CountDeltas runs f and returns the work it did as counted by the
// process registry (obs.Default): one "label sample delta" line for each
// counter sample (a family ending in _total) under one of the family
// prefixes that f moved, sorted by sample name. The counters are
// process-global, so f must be the only thing running that publishes.
func CountDeltas(label string, f func(), prefixes ...string) string {
	before := obs.Default().Values()
	f()
	after := obs.Default().Values()
	var names []string
	for name, v := range after {
		fam, _, _ := strings.Cut(name, "{")
		if v == before[name] || !strings.HasSuffix(fam, "_total") {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(fam, p) {
				names = append(names, name)
				break
			}
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s %d\n", label, name, after[name]-before[name])
	}
	return b.String()
}

// RequireGolden fails t unless got equals the file at path byte for
// byte. The failure names the first differing line and logs the whole
// of got, so an intended change is reviewed as a diff of the file;
// regen says how to rewrite it. The test goes on, so one run reports
// every golden file that moved.
func RequireGolden(t testing.TB, path, got, regen string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if diff := firstLineDiff(string(want), got); diff != "" {
		t.Logf("regenerated %s:\n%s", path, got)
		t.Errorf("%s is out of date (%s): %s", path, regen, diff)
	}
}

// firstLineDiff names the first line at which got departs from want and
// quotes it from both sides, or returns "" when the two are equal.
func firstLineDiff(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return fmt.Sprintf("%q", lines[i])
		}
		return "<end of file>"
	}
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	return fmt.Sprintf("first difference at line %d:\n  want: %s\n  got:  %s", i+1, line(w, i), line(g, i))
}

// Apply follows the sequence of outgoing port numbers ports starting at x
// and returns the final node (the paper's α(x) for α = ports). It returns
// an error if a port is out of range at any step.
func Apply(g *graph.Graph, x int, ports []int) (int, error) {
	cur := x
	for i, p := range ports {
		if p < 0 || p >= g.Degree(cur) {
			return 0, fmt.Errorf("step %d: port %d out of range at node of degree %d", i, p, g.Degree(cur))
		}
		cur, _ = g.Succ(cur, p)
	}
	return cur, nil
}
