package main

// Example runs the program and pins its output: everything it prints is
// seed-deterministic, so any difference is a behaviour change.
func Example() {
	main()
	// Output:
	// load distribution over 4 members:
	//   server-a   271 objects
	//   server-c   236 objects
	//   server-b   266 objects
	//   server-d   227 objects
	//
	// removed server-c: 236 objects moved, 0 of them from surviving members
	// with  5% of member-vector bits flipped: 98.2% of lookups unchanged
	// with 15% of member-vector bits flipped: 98.5% of lookups unchanged
	// with 30% of member-vector bits flipped: 100.0% of lookups unchanged
	//
	// holographic representations fail gradually — no single bit is load-bearing.
}
