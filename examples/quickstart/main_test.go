package main

// Example runs the program and pins its output: everything it prints is
// seed-deterministic, so any difference is a behaviour change.
func Example() {
	main()
	// Output:
	// two random hypervectors: δ(a,b) = 0.498 (quasi-orthogonal)
	// binding:  δ(a⊗b, a) = 0.501 (dissimilar to operands)
	// unbind:   a ⊗ (a⊗b) == b? true (binding is its own inverse)
	// bundling: sim(maj(a,b,c), a) = 0.748 (similar to each operand)
	//
	// level set: distance from L0 grows linearly, endpoints orthogonal
	//   δ(L0, L0 ) = 0.000 (expected 0.000)
	//   δ(L0, L3 ) = 0.140 (expected 0.136)
	//   δ(L0, L6 ) = 0.278 (expected 0.273)
	//   δ(L0, L9 ) = 0.415 (expected 0.409)
	// circular set: distance wraps — the last vector is close to the first
	//   δ(C0, C0 ) = 0.000 (expected 0.000)
	//   δ(C0, C3 ) = 0.250 (expected 0.250)
	//   δ(C0, C6 ) = 0.507 (expected 0.500)
	//   δ(C0, C9 ) = 0.258 (expected 0.250)
	//   δ(C0, C11) = 0.084 — wrap-around neighbor, unlike level's 0.508
	//
	// compass classifier on noisy readings:
	//   0.1 rad → north (distance 0.031)
	//   1.4 rad → east  (distance 0.030)
	//   3.3 rad → south (distance 0.009)
	//   4.6 rad → west  (distance 0.022)
	//   6.2 rad → north (distance 0.000)
}
