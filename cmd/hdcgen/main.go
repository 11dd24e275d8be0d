// Command hdcgen generates basis-hypervector sets and writes them in the
// library's binary framing, or inspects existing files — the offline half
// of an HDC deployment workflow (generate on the host, ship to the target,
// load with hdcirc.ReadBasis).
//
//	hdcgen -kind circular -m 64 -d 10000 -r 0.1 -seed 42 -o basis.hv
//	hdcgen -inspect basis.hv
package main

import (
	"flag"
	"fmt"
	"os"

	"hdcirc/internal/core"
	"hdcirc/internal/rng"
)

func main() {
	kind := flag.String("kind", "circular", "basis family: random|level-legacy (alias thermometer)|level|circular|scatter")
	m := flag.Int("m", 64, "set cardinality")
	d := flag.Int("d", 10000, "hypervector dimension")
	r := flag.Float64("r", 0, "correlation-relaxation hyperparameter (level/circular)")
	seed := flag.Uint64("seed", 1, "random seed")
	out := flag.String("o", "", "output file (default stdout)")
	inspect := flag.String("inspect", "", "inspect an existing basis file instead of generating")
	flag.Parse()

	if err := run(*kind, *m, *d, *r, *seed, *out, *inspect); err != nil {
		fmt.Fprintln(os.Stderr, "hdcgen:", err)
		os.Exit(1)
	}
}

func run(kindName string, m, d int, r float64, seed uint64, out, inspect string) error {
	if inspect != "" {
		f, err := os.Open(inspect)
		if err != nil {
			return err
		}
		defer f.Close()
		set, err := core.ReadSet(f)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %s basis, m=%d d=%d r=%g\n",
			inspect, set.Kind(), set.Len(), set.Dim(), set.R())
		fmt.Printf("  δ(0,1)   = %.4f\n", set.At(0).Distance(set.At(1)))
		fmt.Printf("  δ(0,m/2) = %.4f\n", set.At(0).Distance(set.At(set.Len()/2)))
		fmt.Printf("  δ(0,m−1) = %.4f\n", set.At(0).Distance(set.At(set.Len()-1)))
		return nil
	}

	k, err := core.ParseKind(kindName)
	if err != nil {
		return err
	}
	set := core.Config{Kind: k, M: m, D: d, R: r}.Build(rng.Sub(seed, "hdcgen"))

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	n, err := set.WriteTo(w)
	if err != nil {
		return err
	}
	if out != "" {
		fmt.Fprintf(os.Stderr, "hdcgen: wrote %s basis (m=%d d=%d r=%g, %d bytes) to %s\n",
			set.Kind(), m, d, r, n, out)
	}
	return nil
}
