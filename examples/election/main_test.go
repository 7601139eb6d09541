package main

// Example runs the program; go test checks its printed output.
func Example() {
	main()
	// Output:
	// network: ring-6 (n=6, m=6); agents injected at mirrors 0 and 3, 3 rounds apart
	//
	// rendezvous at mirror 3, 744 rounds after the later agent appeared
	// trajectory lengths: earlier 747 rounds (7 hops), later 744 rounds (4 hops)
	//
	// election decided by time: earlier agent is leader, later agent is non-leader
	//
	// waiting-for-Mommy from fresh positions (5, 2): met at mirror 2 after 21 rounds
	//
	// the paper's intro example (K2, delay 3, move every round):
	// round:  0  1  2  3
	// A:      0  1  0  1
	// B:      ·  ·  ·  1
	// meet:            *
	// rendezvous at node 1, round 3
}
