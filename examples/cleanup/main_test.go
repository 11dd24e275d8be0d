package main

// Example runs the program and pins its output: everything it prints is
// seed-deterministic, so any difference is a behaviour change.
func Example() {
	main()
	// Output:
	// SDM: 5000 hard locations, activation radius 474 of 1024 bits
	//
	// recall under increasing cue corruption (item C5):
	//      5% noise: cue δ=0.050 → recalled δ=0.000 in 2 iteration(s)
	//     15% noise: cue δ=0.126 → recalled δ=0.000 in 2 iteration(s)
	//     25% noise: cue δ=0.186 → recalled δ=0.000 in 2 iteration(s)
	//     35% noise: cue δ=0.246 → recalled δ=0.000 in 3 iteration(s)
	//
	// beyond the critical distance the memory falls toward other attractors —
	// inside it, recall converges to the stored vector in a couple of reads.
}
