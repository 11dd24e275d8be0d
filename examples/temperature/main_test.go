package main

// Example runs the program and pins its output: everything it prints is
// seed-deterministic, so any difference is a behaviour change.
func Example() {
	main()
	// Output:
	// synthetic Beijing-like series: 11680 hourly samples, 8175 train / 3505 test (chronological)
	//
	// random    basis for day & hour: test MSE   343.8 °C²
	// level     basis for day & hour: test MSE   127.1 °C²
	// circular  basis for day & hour: test MSE    79.1 °C²
	//
	// Dec 31st and Jan 1st are neighboring days; only the circular basis
	// encodes them as neighbors, so winter predictions stop tearing at the seam.
}
