package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/core"
	"hdcirc/internal/dataset"
	"hdcirc/internal/embed"
	"hdcirc/internal/experiments"
	"hdcirc/internal/model"
	"hdcirc/internal/rng"
)

// defaultSeed is the seed whose Table 1 and Table 2 cells are pinned.
const defaultSeed = experiments.DefaultSeed

// pinnedTable1 and pinnedTable2 are the paper tables at the default seed,
// row by row in the order random, level, circular. Every run at that seed
// must reproduce them exactly.
var (
	pinnedTable1 = [][3]float64{
		{0.7866666666666666, 0.7173333333333334, 0.9733333333333334}, // Knot Tying
		{0.712, 0.6426666666666667, 0.8746666666666667},              // Needle Passing
		{0.7413333333333333, 0.608, 0.8266666666666667},              // Suturing
	}
	pinnedTable2 = [][3]float64{
		{352.90784084678774, 127.41287104986297, 79.18820704556929}, // Beijing
		{2984.5099511517315, 972.4284336412235, 944.4928219203888},  // Mars Express
	}
)

// libraryOps is the length of the in-process closed loop on the Table 1
// circular model of libraryTask (a Table 1 row): the library user's
// single-sample path.
const (
	libraryOps  = 4000
	libraryTask = 2
)

// tablesWorkload regenerates the paper's Table 1 and Table 2 at d = 10000,
// then builds the three Table 1 circular models in-process and runs a
// closed loop on one of them.
type tablesWorkload struct {
	c1 experiments.Table1Config
	c2 experiments.Table2Config
	// first holds the first repetition's cells and loop answers; every
	// later repetition must repeat them.
	first *tableOutputs
}

type tableOutputs struct {
	cells    []float64
	loopHash uint64
}

func newTablesWorkload(seed uint64) (workload, error) {
	w := &tablesWorkload{c1: experiments.DefaultTable1Config(), c2: experiments.DefaultTable2Config()}
	w.c1.Classify.Seed = seed
	w.c2.Regress.Seed = seed
	return w, nil
}

func (w *tablesWorkload) rep(ctx context.Context, tr *tracer) (*repResult, error) {
	r := &repResult{layers: map[string]float64{}, notes: map[string]float64{}}

	p := beginPhase()
	gestures, temps, orbits := w.generate()
	r.setup = p.end(&r.timed)

	p = beginPhase()
	t1 := experiments.RunTable1(w.c1)
	table1 := time.Since(p.start)
	t2 := experiments.RunTable2(w.c2)
	r.work = p.end(&r.timed)
	bases := len(experiments.Table1Basis)
	for _, g := range gestures {
		r.workOps += bases * (len(g.Train) + len(g.Test))
	}
	r.workOps += bases * (len(temps) + len(orbits))
	cells := bases * (len(t1.Rows) + len(t2.Rows))
	r.attempted += cells
	r.notes["tables_s"] = r.work.Seconds()

	out := &tableOutputs{}
	for _, row := range t1.Rows {
		for _, k := range experiments.Table1Basis {
			out.cells = append(out.cells, row.Accuracy[k])
		}
	}
	for _, row := range t2.Rows {
		for _, k := range experiments.Table1Basis {
			out.cells = append(out.cells, row.MSE[k])
		}
	}
	if err := w.checkTables(t1, t2, out.cells); err != nil {
		r.failed += cells
		return r, err
	}

	lib, err := w.library(r, gestures, t1)
	if err != nil {
		return r, err
	}
	out.loopHash = lib.loopHash
	if w.first == nil {
		w.first = out
	} else if err := w.first.same(out); err != nil {
		return r, err
	}

	if tr != nil {
		r.layers["experiments.table1_s"] = table1.Seconds()
		r.layers["experiments.table2_s"] = (r.work - table1).Seconds()
		r.layers["dataset.gen_ms"] = float64(r.setup) / 1e6
		w.basisLayers(r)
		r.layers["embed.encode_us"] = usOf(lib.encode, int64(lib.encodeCalls))
		r.layers["embed.encode_calls"] = float64(lib.encodeCalls)
		ds := gestures[libraryTask]
		r.layers["model.add_us"], r.layers["model.predict_us"] = timeClassifier(w.c1.Classify.Seed, ds.Train, lib.trainHV, lib.testHV)
	}
	r.fixtureHeap = liveHeap()
	return r, nil
}

// generate is the set-up: the tables' synthetic datasets, generated as the
// tables generate them.
func (w *tablesWorkload) generate() ([]*dataset.GestureDataset, []dataset.TempSample, []dataset.OrbitSample) {
	gestures := make([]*dataset.GestureDataset, len(experiments.Tasks))
	for t, task := range experiments.Tasks {
		g := w.c1.Gesture
		g.Task = task
		gestures[t] = dataset.GenGestures(g, w.c1.Classify.Seed)
	}
	return gestures, dataset.GenTemperature(w.c2.Temp, w.c2.Regress.Seed), dataset.GenOrbitPower(w.c2.Orbit, w.c2.Regress.Seed)
}

func (w *tablesWorkload) setUp(ctx context.Context) (func(), error) {
	w.generate()
	return nil, nil
}

// checkTables compares every cell with the pinned tables at the default
// seed. At any other seed the paper's headline must hold: circular beats
// random and level on mean accuracy in Table 1 and on mean MSE in Table 2.
func (w *tablesWorkload) checkTables(t1 *experiments.Table1Result, t2 *experiments.Table2Result, cells []float64) error {
	if w.c1.Classify.Seed == defaultSeed {
		var want []float64
		for _, row := range pinnedTable1 {
			want = append(want, row[:]...)
		}
		for _, row := range pinnedTable2 {
			want = append(want, row[:]...)
		}
		if len(want) != len(cells) {
			return fmt.Errorf("tables: %d cells, %d pinned", len(cells), len(want))
		}
		for i := range cells {
			if cells[i] != want[i] {
				return fmt.Errorf("tables: cell %d is %v, pinned %v", i, cells[i], want[i])
			}
		}
		return nil
	}
	for _, ref := range []core.Kind{core.KindRandom, core.KindLevel} {
		if g := t1.AverageImprovement(ref); !(g > 0) {
			return fmt.Errorf("table 1: circular's mean accuracy gain over %s is %v, want > 0", ref, g)
		}
		if g := t2.AverageReduction(ref); !(g > 0) {
			return fmt.Errorf("table 2: circular's mean MSE reduction versus %s is %v, want > 0", ref, g)
		}
	}
	return nil
}

func (a *tableOutputs) same(b *tableOutputs) error {
	for i := range a.cells {
		if a.cells[i] != b.cells[i] {
			return fmt.Errorf("tables: cell %d changed between repetitions: %v then %v", i, a.cells[i], b.cells[i])
		}
	}
	if a.loopHash != b.loopHash {
		return fmt.Errorf("in-process loop: answers changed between repetitions")
	}
	return nil
}

type libraryResult struct {
	trainHV, testHV []*bitvec.Vector // the loop task's encodings
	encode          time.Duration    // encoding every task's test split
	encodeCalls     int
	loopHash        uint64
}

// libraryModel is one task's Table 1 circular model, built as
// experiments.RunGestureClassification builds it.
type libraryModel struct {
	ds     *dataset.GestureDataset
	rec    *embed.RecordEncoder
	fields []embed.FieldEncoder
	clf    *model.Classifier
}

func (w *tablesWorkload) newLibraryModel(ds *dataset.GestureDataset) *libraryModel {
	cc := w.c1.Classify
	task := ds.Config.Task
	set := core.Config{Kind: core.KindCircular, M: cc.ValueLevels, D: cc.D, R: w.c1.CircularR}.
		Build(rng.Sub(cc.Seed, fmt.Sprintf("classify/basis/%s/%s/%g", task, core.KindCircular, w.c1.CircularR)))
	circ := embed.NewCircularEncoder(set, 2*math.Pi)
	m := &libraryModel{
		ds:     ds,
		rec:    embed.NewRecordEncoder(cc.D, ds.Config.NumFeatures, cc.Seed^fnv1a(task)),
		fields: make([]embed.FieldEncoder, ds.Config.NumFeatures),
		clf:    model.NewClassifier(ds.Config.NumGestures, cc.D, cc.Seed^fnv1a("clf")),
	}
	for i := range m.fields {
		m.fields[i] = circ
	}
	return m
}

func (m *libraryModel) encode(features []float64) *bitvec.Vector {
	return m.rec.EncodeRecord(features, m.fields)
}

// library serves the Table 1 circular models in-process, the library
// user's single-sample path. Every task's training split is encoded and
// bundled (the ingest); each model's test accuracy must then equal its
// Table 1 cell exactly. A closed loop of libraryOps operations on one
// task's model follows, 9 predicts to 1 train. A train is visible once the
// prototypes are re-thresholded, which the loop does right after Add.
func (w *tablesWorkload) library(r *repResult, gestures []*dataset.GestureDataset, t1 *experiments.Table1Result) (*libraryResult, error) {
	models := make([]*libraryModel, len(gestures))
	for t, ds := range gestures {
		models[t] = w.newLibraryModel(ds)
	}
	lib := &libraryResult{}
	p := beginPhase()
	for t, m := range models {
		for _, s := range m.ds.Train {
			hv := m.encode(s.Features)
			m.clf.Add(s.Label, hv)
			if t == libraryTask {
				lib.trainHV = append(lib.trainHV, hv)
			}
		}
		r.ingestRows += len(m.ds.Train)
	}
	r.ingest = p.end(&r.timed)
	r.attempted += r.ingestRows

	for t, m := range models {
		start := time.Now()
		var hvs []*bitvec.Vector
		for _, s := range m.ds.Test {
			hvs = append(hvs, m.encode(s.Features))
		}
		lib.encode += time.Since(start)
		lib.encodeCalls += len(hvs)
		correct := 0
		for i, s := range m.ds.Test {
			if c, _ := m.clf.Predict(hvs[i]); c == s.Label {
				correct++
			}
		}
		cell := t1.Rows[t].Accuracy[core.KindCircular]
		if acc := float64(correct) / float64(len(m.ds.Test)); acc != cell {
			return nil, fmt.Errorf("in-process model: accuracy %v after ingest, Table 1 reports %v for %s", acc, cell, m.ds.Config.Task)
		}
		if t == libraryTask {
			lib.testHV = hvs
		}
	}

	m := models[libraryTask]
	h := fnv.New64a()
	p = beginPhase()
	for i := uint64(1); i <= libraryOps; i++ {
		start := time.Now()
		if isRead(i) {
			c, _ := m.clf.Predict(m.encode(m.ds.Test[int(i)%len(m.ds.Test)].Features))
			r.predict = append(r.predict, time.Since(start))
			h.Write([]byte{byte(c)})
			continue
		}
		s := m.ds.Train[int(i)%len(m.ds.Train)]
		m.clf.Add(s.Label, m.encode(s.Features))
		r.train = append(r.train, time.Since(start))
		m.clf.Finalize()
		r.visible = append(r.visible, time.Since(start))
	}
	p.end(&r.timed)
	r.attempted += libraryOps
	lib.loopHash = h.Sum64()
	return lib, nil
}

// basisLayers times core.Config.Build for each basis family at the sizes
// the tables build: the gesture features, Beijing's day and hour, and the
// Mars Express anomaly.
func (w *tablesWorkload) basisLayers(r *repResult) {
	rc := w.c2.Regress
	sizes := []struct {
		m int
		r float64
	}{
		{w.c1.Classify.ValueLevels, w.c1.CircularR},
		{rc.DayLevels, w.c2.CircularR},
		{rc.HourLevels, w.c2.CircularR},
		{rc.AnomalyLevels, w.c2.CircularR},
	}
	for _, kind := range []core.Kind{core.KindRandom, core.KindLevel, core.KindCircular} {
		total := 0.0
		for _, s := range sizes {
			cfg := core.Config{Kind: kind, M: s.m, D: w.c1.Classify.D}
			if kind == core.KindCircular {
				cfg.R = s.r
			}
			total += timeBasis(w.c1.Classify.Seed, cfg)
		}
		r.layers["core.basis_ms."+kind.String()] = total
	}
}

// fnv1a folds a string into a uint64 the way the experiments derive their
// per-task seeds.
func fnv1a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
