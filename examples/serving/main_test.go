package main

// Example runs the program and pins its output: everything it prints is
// seed-deterministic, so any difference is a behaviour change.
func Example() {
	main()
	// Output:
	// trained 24 samples → version 1 (2 items interned)
	// bulk ingest: 2000 rows in 8 batches → version 9
	// query [0.1 0.1] → class 0 (distance 0.023, version 9)
	// query [0.9 0.1] → class 1 (distance 0.033, version 9)
	// query [0.5 0.9] → class 2 (distance 0.023, version 9)
	// query [0.45 0.8] → class 2 (distance 0.033, version 9)
	// coalesced fan-in: 12/12 callers classified correctly
	// wrong arity rejected with code "invalid_request": record 0: record has 1 features, server expects 2
	// stats: version 9, 2024 samples, 16 reads served, durable=false
}
