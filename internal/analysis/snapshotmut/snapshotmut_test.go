package snapshotmut_test

import (
	"testing"

	"hdcirc/internal/analysis/analysistest"
	"hdcirc/internal/analysis/snapshotmut"
)

func TestSnapshotMut(t *testing.T) {
	analysistest.Run(t, "testdata", snapshotmut.Analyzer,
		"serve", "index", "other")
}
