package agent

import (
	"strings"
	"testing"
)

func TestErrBadPortMessage(t *testing.T) {
	err := ErrBadPort{Port: 5, Degree: 2}
	if !strings.Contains(err.Error(), "port 5") || !strings.Contains(err.Error(), "degree 2") {
		t.Fatalf("unhelpful error: %q", err.Error())
	}
}

func TestParseWord(t *testing.T) {
	actions, err := ParseWord("N.esW")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, ScriptWait, 1, 2, 3}
	if len(actions) != len(want) {
		t.Fatalf("actions %v", actions)
	}
	for i := range want {
		if actions[i] != want[i] {
			t.Fatalf("action %d = %d, want %d", i, actions[i], want[i])
		}
	}
	if _, err := ParseWord("NQ"); err == nil {
		t.Fatal("garbage accepted")
	}
	empty, err := ParseWord("")
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty word: %v %v", empty, err)
	}
}

func TestTraceStringEmpty(t *testing.T) {
	tr := &Trace{}
	if tr.String() != "" || tr.Clock() != 0 || tr.Moves() != 0 {
		t.Fatal("empty trace accessors wrong")
	}
}
