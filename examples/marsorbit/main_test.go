package main

// Example runs the program and pins its output: everything it prints is
// seed-deterministic, so any difference is a behaviour change.
func Example() {
	main()
	// Output:
	// synthetic Mars-Express-like telemetry: 1500 samples, 1050 train / 450 test (random split)
	//
	// basis family comparison (the paper's Table 2, row 2):
	//   random    basis: test MSE   2464.6 W²
	//   level     basis: test MSE    935.3 W²
	//   circular  basis: test MSE    888.8 W²
	//
	// r-hyperparameter sweep on the circular basis (Figure 8 in miniature):
	//   r = 0    → test MSE    778.7 W²
	//   r = 0.01 → test MSE    888.8 W²
	//   r = 0.1  → test MSE    905.8 W²
	//   r = 0.5  → test MSE   1076.3 W²
	//   r = 1    → test MSE   3519.1 W²
	//
	// at r = 1 the circular set degenerates to a random set — the sweep shows
	// the trade-off between correlation preservation and information content.
}
