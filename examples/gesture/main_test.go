package main

// Example runs the program and pins its output: everything it prints is
// seed-deterministic, so any difference is a behaviour change.
func Example() {
	main()
	// Output:
	// synthetic JIGSAWS-like task: 15 gestures, 18 angular features, 600 train / 375 test
	//
	// random    basis: accuracy 75.5%
	// level     basis: accuracy 72.0%
	// circular  basis: accuracy 96.3%
	//
	// circular wins because joint angles wrap: a reading of 6.2 rad and one of
	// 0.1 rad are the same posture, which level encodings treat as opposites.
}
