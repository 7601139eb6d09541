package main

// Example runs the program; go test checks its printed output.
func Example() {
	main()
	// Output:
	// mine layout: symtree-((()())) (n=8, m=7), diameter 5
	// drop points: drift 3 and its mirror 7, 5 corridors apart
	// Shrink = 1 (witness drive plan [0 0])
	//
	// dropping with delay 0: symmetric, Shrink=1: infeasible (δ < Shrink)
	// dropping with delay 1: symmetric, Shrink=1: feasible (δ >= Shrink)
	//
	// SymmRV(n=8, d=1, δ=1): met=true after 60 rounds (budget T=15390)
	// UniversalRV: met=true after 894 rounds (guarantee 6409307388176)
	// simultaneous drop: met=false in 2000000 rounds — infeasible by Lemma 3.1
}
