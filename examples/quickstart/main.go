// Quickstart: a 60-second tour of the hdcirc public API — hypervector
// arithmetic, the three basis-hypervector families, encoding, and a tiny
// classifier.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math"

	"hdcirc"
)

func main() {
	const d = 10000 // the paper's hypervector dimension
	stream := hdcirc.NewStream(42)

	// --- 1. Hypervector arithmetic -------------------------------------
	a := hdcirc.RandomVector(d, stream)
	b := hdcirc.RandomVector(d, stream)
	fmt.Printf("two random hypervectors: δ(a,b) = %.3f (quasi-orthogonal)\n", a.Distance(b))

	bound := a.Xor(b) // binding associates a and b
	fmt.Printf("binding:  δ(a⊗b, a) = %.3f (dissimilar to operands)\n", bound.Distance(a))
	fmt.Printf("unbind:   a ⊗ (a⊗b) == b? %v (binding is its own inverse)\n",
		a.Xor(bound).Equal(b))

	bundle := hdcirc.Majority([]*hdcirc.Vector{a, b, hdcirc.RandomVector(d, stream)}, nil)
	fmt.Printf("bundling: sim(maj(a,b,c), a) = %.3f (similar to each operand)\n\n",
		bundle.Similarity(a))

	// --- 2. Basis-hypervector families ----------------------------------
	m := 12
	level := hdcirc.NewBasis(hdcirc.Level, m, d, 0, stream)
	circular := hdcirc.NewBasis(hdcirc.Circular, m, d, 0, stream)
	fmt.Println("level set: distance from L0 grows linearly, endpoints orthogonal")
	for j := 0; j < m; j += 3 {
		fmt.Printf("  δ(L0, L%-2d) = %.3f (expected %.3f)\n",
			j, level.At(0).Distance(level.At(j)), hdcirc.LevelExpectedDistance(m, 0, j))
	}
	fmt.Println("circular set: distance wraps — the last vector is close to the first")
	for j := 0; j < m; j += 3 {
		fmt.Printf("  δ(C0, C%-2d) = %.3f (expected %.3f)\n",
			j, circular.At(0).Distance(circular.At(j)), hdcirc.CircularExpectedDistance(m, 0, j))
	}
	fmt.Printf("  δ(C0, C%d) = %.3f — wrap-around neighbor, unlike level's %.3f\n\n",
		m-1, circular.At(0).Distance(circular.At(m-1)),
		level.At(0).Distance(level.At(m-1)))

	// --- 3. Encoding and a tiny angle classifier ------------------------
	// Classify compass directions from noisy angle readings.
	enc := hdcirc.NewCircularEncoder(hdcirc.NewBasis(hdcirc.Circular, 64, d, 0, stream), 2*math.Pi)
	headings := []float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2} // N E S W
	names := []string{"north", "east", "south", "west"}

	clf := hdcirc.NewClassifier(len(headings), d, 7)
	noise := hdcirc.NewStream(99)
	for class, h := range headings {
		for i := 0; i < 20; i++ {
			reading := h + (noise.Float64()-0.5)*0.6
			clf.Add(class, enc.Encode(reading))
		}
	}
	fmt.Println("compass classifier on noisy readings:")
	for _, q := range []float64{0.1, 1.4, 3.3, 4.6, 6.2} {
		class, dist := clf.Predict(enc.Encode(q))
		fmt.Printf("  %.1f rad → %-5s (distance %.3f)\n", q, names[class], dist)
	}
}
