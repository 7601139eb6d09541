package agent

import "testing"

func TestActionPort(t *testing.T) {
	cases := []struct {
		action, entry, degree int
		port                  int
		wait                  bool
	}{
		{ScriptWait, 2, 3, 0, true},
		{0, 5, 3, 0, false},       // absolute in range
		{7, 5, 3, 1, false},       // absolute wraps modulo degree
		{Rel(0), 2, 4, 2, false},  // straight back through the entry
		{Rel(3), 1, 4, 0, false},  // UXS rule: (entry + a) mod degree
		{Rel(1), -1, 4, 1, false}, // never moved: entry treated as 0
		{Rel(10), 0, 3, 1, false}, // relative offset wraps too
	}
	for _, c := range cases {
		port, wait := ActionPort(c.action, c.entry, c.degree)
		if port != c.port || wait != c.wait {
			t.Fatalf("ActionPort(%d,%d,%d) = (%d,%v), want (%d,%v)",
				c.action, c.entry, c.degree, port, wait, c.port, c.wait)
		}
	}
}

func TestRelRoundTrips(t *testing.T) {
	for off := 0; off < 50; off++ {
		a := Rel(off)
		if a >= -1 {
			t.Fatalf("Rel(%d) = %d collides with wait/absolute encodings", off, a)
		}
		port, wait := ActionPort(a, 0, 1000)
		if wait || port != off {
			t.Fatalf("Rel(%d) decodes to (%d,%v)", off, port, wait)
		}
	}
}

// scriptRecorder implements World over a fixed percept script, recording
// actions — enough to check RunScript's bookkeeping without a simulator.
type scriptRecorder struct {
	deg     int
	entry   int
	clock   uint64
	moves   []int
	waits   int
	nextEnt func(port int) int
}

func (r *scriptRecorder) Degree() int    { return r.deg }
func (r *scriptRecorder) EntryPort() int { return r.entry }
func (r *scriptRecorder) Clock() uint64  { return r.clock }
func (r *scriptRecorder) Move(port int) int {
	r.moves = append(r.moves, port)
	r.entry = r.nextEnt(port)
	r.clock++
	return r.entry
}
func (r *scriptRecorder) Wait(rounds uint64)    { r.waits++; r.clock += rounds }
func (r *scriptRecorder) MoveSeq(a []int) []int { return RunScript(r, a) }
func (r *scriptRecorder) MoveSeqDegrees(a []int) ([]int, []int) {
	return RunScriptDegrees(r, a)
}

func TestRunScriptDegreesBookkeeping(t *testing.T) {
	// Degrees are observed on entry: after each action the stream carries
	// what Degree() returns at that round — unchanged across waits.
	r := &scriptRecorder{deg: 4, entry: -1, nextEnt: func(port int) int { return (port + 1) % 4 }}
	entries, degrees := r.MoveSeqDegrees([]int{0, ScriptWait, Rel(1)})
	if len(entries) != 3 || len(degrees) != 3 {
		t.Fatalf("stream lengths %d/%d", len(entries), len(degrees))
	}
	for i, d := range degrees {
		if d != 4 {
			t.Fatalf("degrees[%d] = %d, want 4 (recorder world is 4-regular)", i, d)
		}
	}
	wantEntries := []int{1, 1, 3}
	for i := range wantEntries {
		if entries[i] != wantEntries[i] {
			t.Fatalf("entries = %v, want %v", entries, wantEntries)
		}
	}
	if r.clock != 3 {
		t.Fatalf("clock = %d, want 3", r.clock)
	}
	if e, d := RunScriptDegrees(r, nil); e != nil || d != nil {
		t.Fatal("empty degree script should return (nil, nil)")
	}
}

func TestRunScriptBookkeeping(t *testing.T) {
	r := &scriptRecorder{deg: 4, entry: -1, nextEnt: func(port int) int { return (port + 1) % 4 }}
	entries := r.MoveSeq([]int{0, ScriptWait, Rel(1), 6})
	if len(entries) != 4 {
		t.Fatalf("entries length %d", len(entries))
	}
	// Move 0 enters by 1; wait leaves entry at 1; Rel(1) = (1+1)%4 = 2,
	// enters by 3; absolute 6 wraps to 2, enters by 3.
	want := []int{1, 1, 3, 3}
	for i := range want {
		if entries[i] != want[i] {
			t.Fatalf("entries = %v, want %v", entries, want)
		}
	}
	if got := r.moves; len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("moves = %v", got)
	}
	if r.waits != 1 || r.clock != 4 {
		t.Fatalf("waits=%d clock=%d", r.waits, r.clock)
	}
	if RunScript(r, nil) != nil {
		t.Fatal("empty script should return nil")
	}
	if r.clock != 4 {
		t.Fatal("empty script consumed rounds")
	}
}

func TestSeqEscapesDecode(t *testing.T) {
	for _, n := range []uint64{1, 2, MaxSeqRepeat} {
		a := SeqRepeat(n)
		if got, ok := SeqRepeatCount(a); !ok || got != n {
			t.Fatalf("SeqRepeatCount(SeqRepeat(%d)) = %d, %v", n, got, ok)
		}
		if _, ok := SeqWaitRounds(a); ok {
			t.Fatalf("SeqRepeat(%d) decodes as a wait run", n)
		}
	}
	for _, n := range []uint64{1, 2, MaxSeqWait} {
		a := SeqWait(n)
		if got, ok := SeqWaitRounds(a); !ok || got != n {
			t.Fatalf("SeqWaitRounds(SeqWait(%d)) = %d, %v", n, got, ok)
		}
		if _, ok := SeqRepeatCount(a); ok {
			t.Fatalf("SeqWait(%d) decodes as a repeat", n)
		}
	}
	for _, a := range []int{0, 7, ScriptWait, Rel(0), Rel(1 << 20)} {
		_, wait := SeqWaitRounds(a)
		_, repeat := SeqRepeatCount(a)
		if wait || repeat {
			t.Fatalf("plain action %d decodes as an escape", a)
		}
	}
}

func TestRunSeqExpandsRepeats(t *testing.T) {
	// A plain move, a block of [1, wait] run three times, a wait run, an
	// empty block, and a one-copy block: the reference fallback expands
	// each block's segment once per copy.
	r := &scriptRecorder{deg: 4, entry: -1, nextEnt: func(port int) int { return (port + 1) % 4 }}
	RunSeq(r, []int{0, SeqRepeat(3), 1, ScriptWait, SeqWait(5), SeqRepeat(2), SeqRepeat(1), 2})
	want := []int{0, 1, 1, 1, 2}
	if len(r.moves) != len(want) {
		t.Fatalf("moves = %v, want %v", r.moves, want)
	}
	for i := range want {
		if r.moves[i] != want[i] {
			t.Fatalf("moves = %v, want %v", r.moves, want)
		}
	}
	if r.clock != 1+6+5+1 || r.waits != 4 {
		t.Fatalf("clock=%d waits=%d, want 13 and 4", r.clock, r.waits)
	}
}
