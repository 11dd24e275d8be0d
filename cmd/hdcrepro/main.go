// Command hdcrepro regenerates the paper's tables and figures on the
// synthetic workload substitutes. Run with -exp to select an experiment:
//
//	hdcrepro -exp table1     # Table 1: gesture classification accuracy
//	hdcrepro -exp table2     # Table 2: regression MSE
//	hdcrepro -exp figure3    # Figure 3: basis similarity heatmaps
//	hdcrepro -exp markov     # Section 4.2: flip calibration sweep
//	hdcrepro -exp figure6    # Figure 6: r-profile similarities
//	hdcrepro -exp figure7    # Figure 7: normalized regression MSE
//	hdcrepro -exp figure8    # Figure 8: r sweep over all datasets
//
// Extensions and ablations beyond the paper:
//
//	hdcrepro -exp levelablation    # Algorithm 1 vs legacy level generation
//	hdcrepro -exp decoderablation  # nearest vs top-k weighted label decode
//	hdcrepro -exp dimsweep         # accuracy vs hypervector dimension
//	hdcrepro -exp emg              # EMG biosignal pipeline (Rahimi lineage)
//	hdcrepro -exp text             # n-gram language identification
//	hdcrepro -exp cost             # hardware energy/memory cost model
//	hdcrepro -exp graph            # GraphHD graph-family classification
//	hdcrepro -exp robustness       # accuracy vs prototype bit-fault rate
//	hdcrepro -exp all              # everything above
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hdcirc/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1|table2|figure3|markov|figure6|figure7|figure8|levelablation|decoderablation|dimsweep|emg|text|cost|graph|robustness|all")
	seed := flag.Uint64("seed", experiments.DefaultSeed, "root random seed")
	dim := flag.Int("d", 10000, "hypervector dimension")
	fast := flag.Bool("fast", false, "reduced workload sizes for a quick pass")
	flag.Parse()

	if err := run(os.Stdout, *exp, *seed, *dim, *fast); err != nil {
		fmt.Fprintln(os.Stderr, "hdcrepro:", err)
		os.Exit(1)
	}
}

// run writes the report of experiment exp to w. It returns an error for an
// unknown experiment name or a failed Markov sweep.
func run(w io.Writer, exp string, seed uint64, dim int, fast bool) error {
	fmt.Fprintf(w, "hdcrepro: seed=%d d=%d fast=%v\n\n", seed, dim, fast)

	table1Cfg := func() experiments.Table1Config {
		cfg := experiments.DefaultTable1Config()
		cfg.Classify.Seed = seed
		cfg.Classify.D = dim
		if fast {
			cfg.Classify.D = 4096
			cfg.Gesture.TrainPerGesture = 15
			cfg.Gesture.TestPerGesture = 10
		}
		return cfg
	}
	table2Cfg := func() experiments.Table2Config {
		cfg := experiments.DefaultTable2Config()
		cfg.Regress.Seed = seed
		cfg.Regress.D = dim
		if fast {
			cfg.Regress.D = 4096
			cfg.Temp.HourStep = 12
			cfg.Orbit.N = 1500
		}
		return cfg
	}
	table1 := func() {
		experiments.RenderTable1(w, experiments.RunTable1(table1Cfg()))
		fmt.Fprintln(w)
	}
	table2 := func() {
		experiments.RenderTable2(w, experiments.RunTable2(table2Cfg()))
		fmt.Fprintln(w)
	}
	figure3 := func() {
		cfg := experiments.DefaultFigure3Config()
		cfg.Seed = seed
		cfg.D = dim
		experiments.RenderFigure3(w, experiments.RunFigure3(cfg))
	}
	markovSweep := func() error {
		pts, err := experiments.RunMarkovSweep(dim,
			[]float64{0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.49})
		if err != nil {
			return err
		}
		experiments.RenderMarkovSweep(w, dim, pts)
		fmt.Fprintln(w)
		return nil
	}
	figure6 := func() {
		cfg := experiments.DefaultFigure6Config()
		cfg.Seed = seed
		cfg.D = dim
		experiments.RenderFigure6(w, experiments.RunFigure6(cfg))
		fmt.Fprintln(w)
	}
	figure7 := func() {
		experiments.RenderFigure7(w, experiments.RunFigure7(table2Cfg()))
		fmt.Fprintln(w)
	}
	figure8 := func() {
		t1, t2 := table1Cfg(), table2Cfg()
		cfg := experiments.DefaultFigure8Config()
		cfg.Classify, cfg.Gesture = t1.Classify, t1.Gesture
		cfg.Regress, cfg.Temp, cfg.Orbit = t2.Regress, t2.Temp, t2.Orbit
		if fast {
			cfg.RGrid = []float64{0, 0.05, 0.2, 0.6, 1}
		}
		experiments.RenderFigure8(w, experiments.RunFigure8(cfg))
		fmt.Fprintln(w)
	}
	levelAblation := func() {
		experiments.RenderLevelAblation(w, experiments.RunLevelAblation(table1Cfg(), table2Cfg()))
		fmt.Fprintln(w)
	}
	decoderAblation := func() {
		experiments.RenderDecoderAblation(w, experiments.RunDecoderAblation(table2Cfg()))
		fmt.Fprintln(w)
	}
	dimSweep := func() {
		base := table1Cfg()
		dims := []int{1024, 2048, 4096, 8192, 16384}
		if fast {
			dims = []int{1024, 4096}
		}
		experiments.RenderDimensionSweep(w,
			experiments.RunDimensionSweep(base.Classify, base.Gesture, dims))
		fmt.Fprintln(w)
	}
	emg := func() {
		cfg := experiments.DefaultEMGExperiment()
		cfg.Seed = seed
		cfg.D = dim
		if fast {
			cfg.D = 4096
			cfg.DataConfig.TrainPerGesture = 10
			cfg.DataConfig.TestPerGesture = 8
		}
		experiments.RenderExtension(w, experiments.RunEMG(cfg))
		fmt.Fprintln(w)
	}
	text := func() {
		cfg := experiments.DefaultTextExperiment()
		cfg.Seed = seed
		cfg.D = dim
		if fast {
			cfg.D = 4096
			cfg.DataConfig.TrainPerLang = 15
			cfg.DataConfig.TestPerLang = 10
		}
		experiments.RenderExtension(w, experiments.RunText(cfg))
		fmt.Fprintln(w)
	}

	cost := func() {
		experiments.RenderCost(w, experiments.RunCost(table1Cfg(), table2Cfg()))
		fmt.Fprintln(w)
	}
	graphhd := func() {
		cfg := experiments.DefaultGraphHDConfig()
		cfg.Seed = seed
		cfg.D = dim
		if fast {
			cfg.D = 4096
			cfg.TrainPerClass = 12
			cfg.TestPerClass = 8
		}
		experiments.RenderGraphHD(w, experiments.RunGraphHD(cfg))
		fmt.Fprintln(w)
	}
	robustness := func() {
		// The sweep starts from Table 1's Knot Tying circular cell.
		t1 := table1Cfg()
		cfg := experiments.DefaultRobustnessConfig()
		cfg.Classify, cfg.Gesture = t1.Classify, t1.Gesture
		experiments.RenderRobustness(w, experiments.RunRobustness(cfg))
		fmt.Fprintln(w)
	}

	switch exp {
	case "table1":
		table1()
	case "table2":
		table2()
	case "figure3":
		figure3()
	case "markov":
		return markovSweep()
	case "figure6":
		figure6()
	case "figure7":
		figure7()
	case "figure8":
		figure8()
	case "levelablation":
		levelAblation()
	case "decoderablation":
		decoderAblation()
	case "dimsweep":
		dimSweep()
	case "emg":
		emg()
	case "text":
		text()
	case "cost":
		cost()
	case "graph":
		graphhd()
	case "robustness":
		robustness()
	case "all":
		figure3()
		if err := markovSweep(); err != nil {
			return err
		}
		figure6()
		table1()
		table2()
		figure7()
		figure8()
		levelAblation()
		decoderAblation()
		dimSweep()
		emg()
		text()
		cost()
		graphhd()
		robustness()
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
