package experiments

// The distributed-dispatch acceptance test at the experiments layer: the
// distributable experiments must regenerate byte-for-byte identical
// tables whether their sweeps run on the default in-process backend or
// on real forked worker processes (this test binary doubles as its own
// worker via dist.RunWorkerIfChild in TestMain) — the test-suite twin of
// the CI job that diffs `rvx --dist-workers 2` against plain rvx.

import (
	"errors"
	"os"
	"testing"

	"repro/dist"
)

func TestMain(m *testing.M) {
	dist.RunWorkerIfChild()
	os.Exit(m.Run())
}

func distTables() map[string]string {
	return map[string]string{
		"E7":  E7(false).Markdown(),
		"E12": E12().Markdown(),
		"E17": E17(false).Markdown(),
	}
}

func TestDistributedTablesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker subprocesses")
	}
	want := distTables() // default in-process backend
	be, err := dist.NewLocal(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	SetDistBackend(be)
	defer SetDistBackend(nil)
	got := distTables()
	for id, tbl := range want {
		if got[id] != tbl {
			t.Errorf("%s: table differs between in-process and 2-worker distributed execution\n--- in-process ---\n%s\n--- distributed ---\n%s", id, tbl, got[id])
		}
	}
}

// failingBackend is a dist.Backend whose every Run fails with err.
type failingBackend struct{ err error }

func (b failingBackend) Run([]*dist.ShardDesc) ([]*dist.ShardResult, error) { return nil, b.err }
func (b failingBackend) Close() error                                       { return nil }

// TestSweepFailurePanicsWithSweepError pins what rvx recovers: a sweep
// its backend cannot run panics with a *SweepError that wraps the
// backend's error.
func TestSweepFailurePanicsWithSweepError(t *testing.T) {
	cause := errors.New("no worker could be started")
	SetDistBackend(failingBackend{cause})
	defer SetDistBackend(nil)
	defer func() {
		se, ok := recover().(*SweepError)
		if !ok {
			t.Fatalf("E12 did not panic with a *SweepError")
		}
		if !errors.Is(se, cause) {
			t.Fatalf("SweepError %v does not wrap the backend's error", se)
		}
	}()
	E12()
}
