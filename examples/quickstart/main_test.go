package main

// Example runs the program; go test checks its printed output.
func Example() {
	main()
	// Output:
	// [(0,1), δ=0] in K2 (n=2, m=1)
	//   characterization: symmetric, Shrink=1: infeasible (δ < Shrink)
	//   no rendezvous in 255752 rounds — exactly as Lemma 3.1 predicts for δ < Shrink
	//
	// [(0,1), δ=1] in K2 (n=2, m=1)
	//   characterization: symmetric, Shrink=1: feasible (δ >= Shrink)
	//   rendezvous at node 1, 0 round(s) after the later agent appeared
	//   (guarantee was 319838 rounds; 1+0 edge traversals used)
	//
	// [(0,1), δ=3] in K2 (n=2, m=1)
	//   characterization: symmetric, Shrink=1: feasible (δ >= Shrink)
	//   rendezvous at node 0, 1 round(s) after the later agent appeared
	//   (guarantee was 703876 rounds; 2+1 edge traversals used)
	//
	// [(0,2), δ=0] in path-3 (n=3, m=2)
	//   characterization: nonsymmetric: feasible for every delay
	//   rendezvous: true at node 1 after 1 rounds
}
