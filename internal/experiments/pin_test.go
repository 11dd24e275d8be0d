package experiments

// Exact-value pins of the paper's reproduced results. Every value below
// was recorded from the experiment it pins; a change to any basis
// construction, encoder, model or seed derivation the experiments run
// through shows up here as a changed number. Tables 1 and 2 are pinned at
// their default configs (d = 10000, the seed-42 cells perfbench also
// checks), Figures 3 and 6 at theirs, and the slower sweeps at the
// reduced-size configs of this package's other tests.

import (
	"hash/fnv"
	"math"
	"testing"

	"hdcirc/internal/core"
)

// floatDigest folds the IEEE-754 bits of xs into an FNV-64a digest, so a
// large result can be pinned exactly in one constant.
func floatDigest(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func requireExact(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, pinned %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s[%d] = %v, pinned %v", what, i, got[i], want[i])
		}
	}
}

func TestPaperTablesPinned(t *testing.T) {
	// Rows in the order random, level, circular.
	table1 := map[string][]float64{
		"Knot Tying":     {0.7866666666666666, 0.7173333333333334, 0.9733333333333334},
		"Needle Passing": {0.712, 0.6426666666666667, 0.8746666666666667},
		"Suturing":       {0.7413333333333333, 0.608, 0.8266666666666667},
	}
	table2 := map[string][]float64{
		"Beijing":      {352.90784084678774, 127.41287104986297, 79.18820704556929},
		"Mars Express": {2984.5099511517315, 972.4284336412235, 944.4928219203888},
	}
	t1 := RunTable1(DefaultTable1Config())
	if len(t1.Rows) != len(table1) {
		t.Fatalf("Table 1 has %d rows, pinned %d", len(t1.Rows), len(table1))
	}
	for _, row := range t1.Rows {
		var got []float64
		for _, k := range Table1Basis {
			got = append(got, row.Accuracy[k])
		}
		requireExact(t, "Table 1 "+row.Task, got, table1[row.Task])
	}
	t2 := RunTable2(DefaultTable2Config())
	if len(t2.Rows) != len(table2) {
		t.Fatalf("Table 2 has %d rows, pinned %d", len(t2.Rows), len(table2))
	}
	for _, row := range t2.Rows {
		var got []float64
		for _, k := range Table1Basis {
			got = append(got, row.MSE[k])
		}
		requireExact(t, "Table 2 "+row.Dataset, got, table2[row.Dataset])
	}
}

func TestFigure3Pinned(t *testing.T) {
	// Row 0 of each similarity matrix, plus a digest of the whole matrix.
	pins := map[core.Kind]struct {
		row0   []float64
		digest uint64
	}{
		core.KindRandom:   {[]float64{1, 0.5034000000000001, 0.4978, 0.496, 0.49870000000000003, 0.503, 0.5022, 0.49939999999999996, 0.49339999999999995, 0.4929}, 0x7dc1553361a01cd5},
		core.KindLevel:    {[]float64{1, 0.9486, 0.8942, 0.8422000000000001, 0.7879, 0.7288, 0.6765, 0.6198, 0.5647, 0.5104}, 0x6589069a7aeb570d},
		core.KindCircular: {[]float64{1, 0.8974, 0.7921, 0.6913, 0.5903, 0.4909, 0.5935, 0.6988, 0.7996, 0.9006}, 0xf8aac92336b900b9},
	}
	res := RunFigure3(DefaultFigure3Config())
	for kind, pin := range pins {
		m := res.Matrices[kind]
		requireExact(t, "Figure 3 "+kind.String()+" row 0", m[0], pin.row0)
		var all []float64
		for _, row := range m {
			all = append(all, row...)
		}
		if got := floatDigest(all); got != pin.digest {
			t.Errorf("Figure 3 %s matrix digest %016x, pinned %016x", kind, got, pin.digest)
		}
	}
}

func TestFigure6Pinned(t *testing.T) {
	pins := [][]float64{
		{1, 0.9042, 0.8046, 0.7062999999999999, 0.6061000000000001, 0.5009, 0.5967, 0.6962999999999999, 0.7946, 0.8948},
		{1, 0.8331, 0.6644, 0.5024, 0.5005999999999999, 0.49929999999999997, 0.5509999999999999, 0.6114999999999999, 0.6685, 0.8381000000000001},
		{1, 0.49329999999999996, 0.5022, 0.48839999999999995, 0.5046999999999999, 0.5012, 0.5006999999999999, 0.4928, 0.494, 0.4979},
	}
	profiles := RunFigure6(DefaultFigure6Config())
	if len(profiles) != len(pins) {
		t.Fatalf("%d profiles, pinned %d", len(profiles), len(pins))
	}
	for i, p := range profiles {
		requireExact(t, "Figure 6 profile", p.Similarity, pins[i])
	}
}

func TestFigure8Pinned(t *testing.T) {
	cfg := DefaultFigure8Config()
	cfg.Classify = fastClassify()
	cfg.Regress = fastRegress()
	cfg.Gesture = fastGesture("")
	cfg.Temp = fastTemp()
	cfg.Orbit = fastOrbit()
	cfg.RGrid = []float64{0, 0.1, 1}
	pins := map[string][]float64{
		"Beijing":        {0.4430079934579145, 0.420718910991629, 1.1148034259148965},
		"Mars Express":   {0.2413033002089217, 0.17983258745550618, 1.1745309328798246},
		"Knot Tying":     {0.41025641025641024, 0.41025641025641024, 1.230769230769231},
		"Needle Passing": {0.2826086956521738, 0.23913043478260873, 1.1739130434782608},
		"Suturing":       {0.31578947368421045, 0.2894736842105263, 1.1842105263157896},
	}
	series := RunFigure8(cfg)
	if len(series) != len(pins) {
		t.Fatalf("%d series, pinned %d", len(series), len(pins))
	}
	for _, s := range series {
		requireExact(t, "Figure 8 "+s.Dataset, s.Error, pins[s.Dataset])
	}
}

func TestLevelAblationPinned(t *testing.T) {
	t1 := DefaultTable1Config()
	t1.Classify = fastClassify()
	t1.Gesture = fastGesture("")
	t2 := DefaultTable2Config()
	t2.Regress = fastRegress()
	t2.Temp = fastTemp()
	t2.Orbit = fastOrbit()
	// Legacy, Algorithm 1.
	pins := map[string][]float64{
		"Knot Tying":     {0.6083333333333333, 0.5333333333333333},
		"Needle Passing": {0.5666666666666667, 0.5833333333333334},
		"Suturing":       {0.6416666666666667, 0.65},
		"Beijing":        {119.54969554978449, 121.05562405038702},
		"Mars Express":   {958.7991367855893, 959.5190267768223},
	}
	rows := RunLevelAblation(t1, t2)
	if len(rows) != len(pins) {
		t.Fatalf("%d rows, pinned %d", len(rows), len(pins))
	}
	for _, r := range rows {
		requireExact(t, "level ablation "+r.Task, []float64{r.LegacyMetric, r.Interp1Metric}, pins[r.Task])
	}
}

func TestDimensionSweepPinned(t *testing.T) {
	pts := RunDimensionSweep(fastClassify(), fastGesture(""), []int{512, 2048, 8192})
	var got []float64
	for _, p := range pts {
		got = append(got, p.Accuracy)
	}
	requireExact(t, "dimension sweep", got, []float64{0.675, 0.8416666666666667, 0.8416666666666667})
}

func TestGraphHDPinned(t *testing.T) {
	res := RunGraphHD(fastGraphHD())
	if res.Accuracy != 0.75 {
		t.Errorf("GraphHD accuracy %v, pinned 0.75", res.Accuracy)
	}
	// Rows are the true family, columns the predicted one.
	pinned := [3][3]int{{3, 5, 0}, {1, 7, 0}, {0, 0, 8}}
	for truth, row := range pinned {
		for pred, want := range row {
			if got := res.Conf.At(truth, pred); got != want {
				t.Errorf("GraphHD confusion[%d][%d] = %d, pinned %d", truth, pred, got, want)
			}
		}
	}
}

// TestAblationBaselinesAreTableCells requires the two ablations to start
// from the exact cells they ablate: the decoder ablation's nearest-label
// decode is Table 2's circular cell, and the robustness sweep at 0 faults
// is Table 1's Knot Tying circular cell.
func TestAblationBaselinesAreTableCells(t *testing.T) {
	t2 := DefaultTable2Config()
	t2.Regress = fastRegress()
	t2.Temp = fastTemp()
	t2.Orbit = fastOrbit()
	table2 := RunTable2(t2)
	for i, row := range RunDecoderAblation(t2) {
		cell := table2.Rows[i]
		if row.Dataset != cell.Dataset || row.NearestMSE != cell.MSE[core.KindCircular] {
			t.Errorf("decoder ablation %s nearest MSE %v, Table 2 %s circular %v",
				row.Dataset, row.NearestMSE, cell.Dataset, cell.MSE[core.KindCircular])
		}
	}

	rc := fastRobustness()
	t1 := DefaultTable1Config()
	t1.Classify = rc.Classify
	t1.Gesture = rc.Gesture
	t1.CircularR = rc.CircularR
	cell := RunTable1(t1).Rows[0]
	pts := RunRobustness(rc)
	if cell.Task != "Knot Tying" || pts[0].FlipFraction != 0 || pts[0].Accuracy != cell.Accuracy[core.KindCircular] {
		t.Errorf("robustness at %v faults %v, Table 1 %s circular %v",
			pts[0].FlipFraction, pts[0].Accuracy, cell.Task, cell.Accuracy[core.KindCircular])
	}
}
