package main

import (
	"bytes"
	"strings"
	"testing"

	"hdcirc/internal/experiments"
)

// TestRunFastExperiments runs the paper's tables, the Markov calibration
// sweep and Figure 3 on the reduced workload and checks that each writes
// its report.
func TestRunFastExperiments(t *testing.T) {
	for exp, want := range map[string]string{
		"table1":  "Table 1 — classification accuracy",
		"table2":  "Table 2 — regression MSE",
		"markov":  "Section 4.2 — flips for target expected distance",
		"figure3": "Figure 3 — pairwise similarity of basis sets",
	} {
		var out bytes.Buffer
		if err := run(&out, exp, experiments.DefaultSeed, 10000, true); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.HasPrefix(out.String(), "hdcrepro: seed=42 d=10000 fast=true\n") {
			t.Errorf("%s: report header missing:\n%s", exp, out.String())
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("%s: report lacks %q:\n%s", exp, want, out.String())
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run(new(bytes.Buffer), "table9", experiments.DefaultSeed, 10000, true)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "table9"`) {
		t.Fatalf("run(table9) = %v, want an unknown-experiment error", err)
	}
}
