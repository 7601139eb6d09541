package main

// Example runs the program; go test checks its printed output.
func Example() {
	main()
	// Output:
	// built qhat-8 (n=13121, m=26242) (h=8): 4-regular, 2187 leaves per type in the underlying tree
	// verified: every node has the same view — the adversary gets to hide anywhere
	//
	// Z (|Z| = 4): the later agent starts at distance D=4 from the root
	//   γ=NN: v at dist 4, midpoint M(v) at dist 2, Shrink(r,v)=1 (STIC [(r,v),4] feasible)
	//   γ=NE: v at dist 4, midpoint M(v) at dist 2, Shrink(r,v)=1 (STIC [(r,v),4] feasible)
	//   γ=EN: v at dist 4, midpoint M(v) at dist 2, Shrink(r,v)=1 (STIC [(r,v),4] feasible)
	//   γ=EE: v at dist 4, midpoint M(v) at dist 2, Shrink(r,v)=1 (STIC [(r,v),4] feasible)
	//
	// the counting argument: to solve every [(r,v),D] the agent from r must visit
	// half of the 4 distinct midpoints — at least 2^(k-1) = 2 distinct nodes — so any
	// algorithm needs time exponential in the initial distance D:
	//
	//   k   D=2k  h=2D  n=2*3^h-1             bound 2^(k-1)
	//   1   2     4     161                   1
	//   2   4     8     13121                 2
	//   3   6     12    1062881               4
	//   4   8     16    86093441              8
	//   5   10    20    6973568801            16
	//   6   12    24    564859072961          32
	//   7   14    28    45753584909921        64
	//   8   16    32    3706040377703681      128
	//   9   18    36    300189270593998241    256
	//   10  20    40    5868586844404305985   512
	//
	// since dist >= Shrink, rendezvous time is also exponential in Shrink(u,v):
	// the (n-1)^d factor in SymmRV's T(n,d,δ) is not an artifact of the algorithm.
}
