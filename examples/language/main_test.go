package main

// Example runs the program and pins its output: everything it prints is
// seed-deterministic, so any difference is a behaviour change.
func Example() {
	main()
	// Output:
	// synthetic languages: 5 Markov chains over 26 letters, 200 train / 125 test sentences
	//
	// trigram classifier accuracy: 99.2%
	//
	// "dhjttxupkkkttvxhcuobgwioqlarkplp"…
	//   → language 1 (true 1), distance 0.441
	// "xzskzplfwjkrbvxedxzjpbdgqapqxoqs"…
	//   → language 4 (true 4), distance 0.452
	// "nxnusspcxkhftxkxwxuxwxwdyccbfocj"…
	//   → language 1 (true 1), distance 0.462
	// "ruffglbraqfwazygxvbmatfmakrvuyac"…
	//   → language 4 (true 4), distance 0.448
	//
	// each sentence is one 10,000-bit vector: the bundle of its bound trigrams.
	// no feature engineering, no counts — just bind, permute, bundle, compare.
}
