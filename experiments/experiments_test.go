package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/simtest"
)

// Each experiment must complete with every internal check passing; these
// tests are the "regenerate the paper" gate of the repository.

func TestE1(t *testing.T) { requireOK(t, E1()) }
func TestE2(t *testing.T) { requireOK(t, E2()) }
func TestE3(t *testing.T) { requireOK(t, E3()) }
func TestE4(t *testing.T) { requireOK(t, E4()) }
func TestE5(t *testing.T) { requireOK(t, E5()) }
func TestE6(t *testing.T) { requireOK(t, E6()) }

func TestE7Quick(t *testing.T) { requireOK(t, E7(false)) }

func TestE7Full(t *testing.T) {
	if testing.Short() {
		t.Skip("full E7 (ring-4 universal) is slow; run without -short")
	}
	requireOK(t, E7(true))
}

func TestE8(t *testing.T) { requireOK(t, E8()) }

func TestE9Quick(t *testing.T) { requireOK(t, E9(false)) }

func TestE9Full(t *testing.T) {
	if testing.Short() {
		t.Skip("full E9 builds a ~1M node Q̂12; run without -short")
	}
	requireOK(t, E9(true))
}

func TestE10(t *testing.T) { requireOK(t, E10()) }
func TestE11(t *testing.T) { requireOK(t, E11()) }
func TestE12(t *testing.T) { requireOK(t, E12()) }
func TestE13(t *testing.T) { requireOK(t, E13()) }
func TestE14(t *testing.T) { requireOK(t, E14()) }
func TestE15(t *testing.T) { requireOK(t, E15()) }
func TestE16(t *testing.T) { requireOK(t, E16()) }

func TestE17Quick(t *testing.T) { requireOK(t, E17(false)) }

func TestE17Full(t *testing.T) {
	if testing.Short() {
		t.Skip("full E17 (ring-4 triple) is slow; run without -short")
	}
	requireOK(t, E17(true))
}

func TestE18(t *testing.T) { requireOK(t, E18()) }
func TestE19(t *testing.T) { requireOK(t, E19()) }

// TestRegistryIsCompleteAndDistinct regenerates every quick table, as
// `rvx -markdown` prints them, and gates two files on the result: the
// tables themselves (testdata/tables.md) and the work each experiment
// took to regenerate them (testdata/counts.txt). The counts are the
// sim_* and dist_* counter samples each experiment moved in the process
// registry: runs, scheduler wakeups, replayed rounds, shards. Every one
// is deterministic, so a change that moves the amount of work updates
// counts.txt in the same diff, and the delta is reviewed there.
func TestRegistryIsCompleteAndDistinct(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; covered individually in short mode")
	}
	reg := Registry(false)
	if len(reg) != 19 {
		t.Fatalf("registry has %d experiments, want 19", len(reg))
	}
	seen := map[string]bool{}
	var md, counts strings.Builder
	for _, e := range reg {
		var tbl *Table
		counts.WriteString(simtest.CountDeltas(e.ID, func() { tbl = e.Run() }, "sim_", "dist_"))
		md.WriteString(tbl.Markdown())
		md.WriteString("\n\n")
		if tbl.ID != e.ID || seen[tbl.ID] {
			t.Fatalf("experiment %s regenerated table %s (duplicate or misfiled)", e.ID, tbl.ID)
		}
		seen[tbl.ID] = true
		if tbl.Title == "" || tbl.PaperRef == "" || len(tbl.Columns) == 0 {
			t.Fatalf("%s: incomplete metadata", tbl.ID)
		}
		if len(tbl.Failed) > 0 {
			t.Fatalf("%s failed: %v", tbl.ID, tbl.Failed)
		}
	}
	// The tables are the paper's reproduced results: any change to their
	// bytes must show up as a change to the golden file in the same diff.
	simtest.RequireGolden(t, filepath.Join("testdata", "tables.md"), md.String(),
		"regenerate it with `go run ./cmd/rvx -markdown > experiments/testdata/tables.md`")
	simtest.RequireGolden(t, filepath.Join("testdata", "counts.txt"), counts.String(),
		"copy the logged file into it: `go test -run 'TestRegistryIsCompleteAndDistinct$' ./experiments/ "+
			"| awk '$1 ~ /^E[0-9]+$/ && NF == 3 {print $1, $2, $3}' > experiments/testdata/counts.txt`")
}

func requireOK(t *testing.T, tbl *Table) {
	t.Helper()
	for _, f := range tbl.Failed {
		t.Errorf("%s: %s", tbl.ID, f)
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s produced no rows", tbl.ID)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:      "EX",
		Title:   "demo",
		Columns: []string{"a", "bb"},
	}
	tbl.AddRow(1, "x")
	tbl.AddRow("yy", 2)
	tbl.Check(false, "deliberate failure %d", 7)
	md := tbl.Markdown()
	for _, want := range []string{"### EX", "| a | bb |", "| 1 | x |", "deliberate failure 7"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	txt := tbl.Text()
	for _, want := range []string{"EX — demo", "deliberate failure 7"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("text missing %q:\n%s", want, txt)
		}
	}
	if len(tbl.Failed) != 1 {
		t.Fatalf("Failed = %q, want the one failed check", tbl.Failed)
	}
}
