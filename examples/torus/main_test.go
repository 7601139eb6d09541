package main

// Example runs the program; go test checks its printed output.
func Example() {
	main()
	// Output:
	// patrol floor: torus-4x3 (n=12, m=24)
	// drones at (0,0) and (2,1): distance 3, Shrink 3 (equal, as the paper's torus example states)
	//
	// delay  feasible  outcome      rounds-after-later
	//     0  false     budget-exhausted  -
	//     1  false     budget-exhausted  -
	//     2  false     budget-exhausted  -
	//     3  true      met          6
	//     4  true      met          6
	//     5  true      met          6
	//
	// the frontier sits exactly at delay = Shrink = 3: time is the only resource that can break this symmetry
}
