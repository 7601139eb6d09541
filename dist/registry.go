package dist

import (
	"fmt"
	"sort"
	"sync"

	"repro/agent"
	"repro/rendezvous"
)

// Agent programs are Go closures and cannot cross a process boundary, so
// the wire carries (name, args) pairs resolved against this registry —
// which both sides share by linking the same package, the classic
// task-registry shape of distributed work queues. Builders must be
// deterministic in their arguments: two processes resolving the same
// ProgDesc must produce behaviorally identical programs, or the
// byte-identical-aggregation invariant is void.

// ProgBuilder constructs a program from its wire arguments.
type ProgBuilder struct {
	// Build returns the program; it must be a pure function of args.
	Build func(args []uint64) (agent.Program, error)
	// Seeded marks builders whose args[0] is a PRNG seed: the executor
	// checks it against the shard descriptor's declared seed range.
	Seeded bool
}

var (
	progMu sync.RWMutex
	progs  = map[string]ProgBuilder{}
)

// RegisterProgram adds a named builder to the registry. Registration is
// typically done from init or main on both the coordinator and worker
// binaries; re-registering a name replaces the previous builder.
func RegisterProgram(name string, b ProgBuilder) {
	if name == "" || b.Build == nil {
		panic("dist: RegisterProgram requires a name and a Build func")
	}
	progMu.Lock()
	defer progMu.Unlock()
	progs[name] = b
}

// Programs lists the registered program names, sorted.
func Programs() []string {
	progMu.RLock()
	defer progMu.RUnlock()
	names := make([]string, 0, len(progs))
	for n := range progs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func lookupProg(name string) (ProgBuilder, bool) {
	progMu.RLock()
	defer progMu.RUnlock()
	b, ok := progs[name]
	return b, ok
}

// buildProg resolves one program descriptor, enforcing the shard's seed
// range on seeded builders ([lo, hi) with hi > lo; a zero range skips
// the check).
func buildProg(p *ProgDesc, seedLo, seedHi uint64) (agent.Program, error) {
	b, ok := lookupProg(p.Name)
	if !ok {
		return nil, fmt.Errorf("dist: program %q not registered (have %v)", p.Name, Programs())
	}
	if b.Seeded && seedHi > seedLo {
		if len(p.Args) == 0 {
			return nil, fmt.Errorf("dist: seeded program %q without a seed argument", p.Name)
		}
		if s := p.Args[0]; s < seedLo || s >= seedHi {
			return nil, fmt.Errorf("dist: program %q seed %d outside the shard's declared range [%d, %d)", p.Name, s, seedLo, seedHi)
		}
	}
	prog, err := b.Build(p.Args)
	if err != nil {
		return nil, fmt.Errorf("dist: building program %q: %w", p.Name, err)
	}
	return prog, nil
}

// args-arity helper for the builtin builders.
func wantArgs(name string, args []uint64, n int) error {
	if len(args) != n {
		return fmt.Errorf("dist: program %q wants %d arg(s), got %d", name, n, len(args))
	}
	return nil
}

// The builtin registry covers what crosses a process boundary: the
// programs the production plans dispatch (universal for E7 and E17,
// lazyrandom for E12 and the daemon), the other programs the tests
// dispatch (doubling, randomwalk, sit, moveevery), and the script
// program the differential tests drive with random action lists.
func init() {
	RegisterProgram("universal", ProgBuilder{Build: func(args []uint64) (agent.Program, error) {
		if err := wantArgs("universal", args, 0); err != nil {
			return nil, err
		}
		return rendezvous.UniversalRV(), nil
	}})
	RegisterProgram("doubling", ProgBuilder{Build: func(args []uint64) (agent.Program, error) {
		if err := wantArgs("doubling", args, 2); err != nil {
			return nil, err
		}
		return rendezvous.NewDoublingRV(args[0], args[1])
	}})
	RegisterProgram("randomwalk", ProgBuilder{Seeded: true, Build: func(args []uint64) (agent.Program, error) {
		if err := wantArgs("randomwalk", args, 1); err != nil {
			return nil, err
		}
		return rendezvous.NewRandomWalk(args[0]), nil
	}})
	RegisterProgram("lazyrandom", ProgBuilder{Seeded: true, Build: func(args []uint64) (agent.Program, error) {
		if err := wantArgs("lazyrandom", args, 1); err != nil {
			return nil, err
		}
		return rendezvous.NewLazyRandomWalk(args[0]), nil
	}})
	RegisterProgram("sit", ProgBuilder{Build: func(args []uint64) (agent.Program, error) {
		if err := wantArgs("sit", args, 0); err != nil {
			return nil, err
		}
		return agent.Sit, nil
	}})
	RegisterProgram("moveevery", ProgBuilder{Build: func(args []uint64) (agent.Program, error) {
		if err := wantArgs("moveevery", args, 0); err != nil {
			return nil, err
		}
		return agent.MoveEveryRound, nil
	}})
	RegisterProgram("script", ProgBuilder{Build: func(args []uint64) (agent.Program, error) {
		actions := make([]int, len(args))
		for i, a := range args {
			actions[i] = int(unzigzag(a))
		}
		return agent.Script(actions), nil
	}})
}
