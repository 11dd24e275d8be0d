// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload in one process — the load generator and every
// server of the topology share one Go runtime — for a fixed number of
// seconds, repeating the workload's seed-determined schedule and building
// and tearing down its fixture on every repetition. It checks the
// program's outputs, prints every end-to-end metric by name with its unit
// and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every repetition counts, at the mounted http.Handler and at the
// http.Client given to the client and to followers, the requests the
// program refused or failed; they add to "failed" and lower ok_ratio even
// when the client's own retry then succeeds.
//
// With --trace 1 the run alternates untraced and traced repetitions. The
// traced ones also record spans and counters at the seams the benchmark
// builds itself (those two, the httpapi.Encoder, the WAL's vfs.FS and
// SubscribeApplied) and the JSON line carries the per-layer metrics plus
// the tracing overhead instead.
//
//	bash perfbench/run.sh --workload paper_tables --seed 42 --seconds 50 --trace 0
//
// README.md beside this file explains each workload and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one traffic mix. rep runs one repetition: set up, run the
// timed phases, check the outputs and tear down. tr is nil in untraced
// repetitions, and then the wrappers only count refusals. setUp only
// builds the fixture and returns its teardown, so that the run can time
// set-up alone for more set-up samples than repetitions give.
type workload interface {
	rep(ctx context.Context, tr *tracer) (*repResult, error)
	setUp(ctx context.Context) (teardown func(), err error)
}

// extraSetups is how many set-up-only cycles follow each untraced
// repetition. Set-up takes milliseconds, so its median needs many samples.
const extraSetups = 4

var workloads = map[string]func(seed uint64) (workload, error){
	"paper_tables":       newTablesWorkload,
	"single_node":        newSingleNode,
	"sharded_replicated": newShardedReplicated,
}

// endToEnd lists the end-to-end metrics in report order with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"ingest_rows_per_s", "rows/s"},
	{"predict_mean_ms", "ms"},
	{"train_mean_ms", "ms"},
	{"visible_mean_ms", "ms"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// repResult is what one repetition measured.
type repResult struct {
	setup      time.Duration
	setups     []time.Duration // every set-up sample of the repetition, setup included
	work       time.Duration   // the timed work phase: the tables, or the closed loop
	workOps    int
	ingest     time.Duration
	ingestRows int
	predict    []time.Duration
	train      []time.Duration
	visible    []time.Duration
	attempted  int
	failed     int                // failed operations plus refused or failed requests
	timed      meter              // runtime counters summed over the timed phases
	layers     map[string]float64 // per-layer metrics, traced repetitions only
	notes      map[string]float64 // extra figures for the text report
	spans      []span
	// fixtureHeap is the live heap with the fixture still up, read after
	// the checks and before teardown; the leak guard compares against it.
	fixtureHeap uint64
}

// addRefusals counts each request the program refused or failed during
// the repetition as one more attempted operation that failed, so that
// ok_ratio stays between 0 and 1.
func (r *repResult) addRefusals(c *refusals) {
	n := c.total()
	r.attempted += n
	r.failed += n
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "paper_tables | single_node | sharded_replicated")
	seed := flag.Uint64("seed", 42, "input seed")
	seconds := flag.Int("seconds", 50, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs traced repetitions and reports per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <%s> --seed N --seconds N --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	fmt.Printf("env seed=%d gomaxprocs=%d nproc=%d go=%s workload=%s seconds=%d trace=%d\n",
		*seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), *name, *seconds, *trace)
	w, err := mk(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: preparing %s: %v\n", *name, err)
		os.Exit(1)
	}
	res, err := run(w, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// run repeats the workload until the measured time is spent (at least
// three untraced repetitions, plus as many traced ones when tracing) and
// aggregates the repetitions into the reported metrics. Any failed check
// or leak ends the run with Correct false.
func run(w workload, name string, seed uint64, budget time.Duration, trace bool) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	ctx := context.Background()
	var plain, traced []*repResult
	start := time.Now()
	for i := 0; ; i++ {
		isTraced := trace && i%2 == 1
		enough := len(plain) >= 3 && (!trace || len(traced) >= 3)
		if enough && time.Since(start) >= budget {
			break
		}
		var tr *tracer
		if isTraced {
			tr = newTracer()
		}
		g0, h0 := runtime.NumGoroutine(), liveHeap()
		r, err := w.rep(ctx, tr)
		if err == nil {
			r.setups = append(r.setups, r.setup)
			for k := 0; k < extraSetups && !isTraced && err == nil; k++ {
				var teardown func()
				p := beginPhase()
				teardown, err = w.setUp(ctx)
				r.setups = append(r.setups, time.Since(p.start))
				if teardown != nil {
					teardown()
				}
			}
		}
		if r != nil {
			res.Attempted += r.attempted
			res.Failed += r.failed
		}
		if err == nil {
			err = leakCheck(g0, h0, r.fixtureHeap, !isTraced)
		}
		if err != nil {
			res.Correct = false
			if res.Attempted == 0 {
				res.Attempted = 1
			}
			return res, fmt.Errorf("repetition %d: %w", i, err)
		}
		fmt.Fprintf(os.Stderr, "rep %d traced=%v setup_ms=%.3f ingest_ms=%.1f work_ms=%.1f ops=%d predict_mean_ms=%.4f train_mean_ms=%.4f visible_mean_ms=%.4f failed=%d alloc_mb=%.1f gc=%.0f\n",
			i, isTraced, float64(r.setup)/1e6, float64(r.ingest)/1e6, float64(r.work)/1e6, r.workOps,
			meanMS(r.predict), meanMS(r.train), meanMS(r.visible),
			r.failed, r.timed.allocBytes/1e6, r.timed.gcCycles)
		if isTraced {
			addRuntimeLayers(r)
			r.layers["runtime.goroutines_delta"] = float64(runtime.NumGoroutine() - g0)
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	fmt.Printf("repetitions untraced=%d traced=%d measured_s=%.1f\n", len(plain), len(traced), time.Since(start).Seconds())
	e2e := endToEndMetrics(plain)
	printEndToEnd("", e2e, plain)
	if !trace {
		res.Metrics = e2e
		return res, nil
	}
	tracedE2E := endToEndMetrics(traced)
	printEndToEnd("traced ", tracedE2E, traced)
	res.Metrics = perLayerMetrics(traced, e2e, tracedE2E)
	printPerLayer(res.Metrics)
	printStages(name)
	if err := writeTrace(name, seed, traced[len(traced)-1], res.Metrics); err != nil {
		return res, err
	}
	return res, nil
}

// endToEndMetrics aggregates repetitions. Set-up time and allocation are
// medians over the run. Every other timing is the best repetition's: the
// highest per-repetition rate, or the lowest per-repetition mean latency.
// Each repetition runs the same seed-determined schedule on a fixture of
// its own, so the program does the same work in each, and what differs
// between them is how much of the shared host the run got meanwhile. That
// interference only ever adds time, and it comes and goes within a run and
// from one run to the next; the best repetition is the one it touched
// least, while a run's median moves with how much of the run it touched.
// Latency is taken by its mean: with two operations in flight on two CPUs
// an operation either runs alone or shares them, and a percentile that
// falls where the two modes meet jumps as their mix drifts. The mean moves
// smoothly with the mix. Percentiles are in the traced report.
func endToEndMetrics(reps []*repResult) map[string]metric {
	var setup, alloc []float64
	vals := map[string]float64{}
	best := func(name string, v float64, higher bool) {
		if old, ok := vals[name]; !ok || (higher && v > old) || (!higher && v < old) {
			vals[name] = v
		}
	}
	attempted, failed := 0, 0
	for _, r := range reps {
		for _, d := range r.setups {
			setup = append(setup, d.Seconds())
		}
		alloc = append(alloc, r.timed.allocBytes/1e6)
		best("ops_per_s", float64(r.workOps)/r.work.Seconds(), true)
		best("ingest_rows_per_s", float64(r.ingestRows)/r.ingest.Seconds(), true)
		best("predict_mean_ms", meanMS(r.predict), false)
		best("train_mean_ms", meanMS(r.train), false)
		best("visible_mean_ms", meanMS(r.visible), false)
		attempted += r.attempted
		failed += r.failed
	}
	ok := 0.0
	if attempted > 0 {
		ok = float64(attempted-failed) / float64(attempted)
	}
	vals["setup_s"] = quantile(setup, 0.5)
	vals["alloc_mb"] = quantile(alloc, 0.5)
	vals["peak_rss_mb"] = peakRSSMB()
	vals["ok_ratio"] = ok
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

func printEndToEnd(prefix string, m map[string]metric, reps []*repResult) {
	var setups, predict, train, visible, attempted int
	notes := map[string][]float64{}
	for _, r := range reps {
		setups += len(r.setups)
		predict += len(r.predict)
		train += len(r.train)
		visible += len(r.visible)
		attempted += r.attempted
		for k, v := range r.notes {
			notes[k] = append(notes[k], v)
		}
	}
	basis := map[string]string{
		"setup_s":         fmt.Sprintf("median of %d set-ups", setups),
		"predict_mean_ms": fmt.Sprintf("best of %d repetitions, n=%d", len(reps), predict),
		"train_mean_ms":   fmt.Sprintf("best of %d repetitions, n=%d", len(reps), train),
		"visible_mean_ms": fmt.Sprintf("best of %d repetitions, n=%d", len(reps), visible),
		"alloc_mb":        fmt.Sprintf("median of %d repetitions", len(reps)),
		"peak_rss_mb":     "whole process",
		"ok_ratio":        fmt.Sprintf("of %d attempted", attempted),
	}
	for _, e := range endToEnd {
		b, ok := basis[e.name]
		if !ok {
			b = fmt.Sprintf("best of %d repetitions", len(reps))
		}
		fmt.Printf("%s%s %.6g %s (%s)\n", prefix, e.name, m[e.name].Value, e.unit, b)
	}
	var keys []string
	for k := range notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s%s %.6g (median of %d repetitions)\n", prefix, k, quantile(notes[k], 0.5), len(notes[k]))
	}
}

// meter holds cumulative runtime counters; differences between two reads
// give what a phase cost the whole process.
type meter struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64
	gcPauseNs  float64
}

func readMeter() meter {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCycles:   float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
		gcPauseNs:  float64(ms.PauseTotalNs),
	}
}

// phase times one timed phase and adds its runtime cost to a repetition.
type phase struct {
	start time.Time
	m0    meter
}

// beginPhase collects garbage first, so that a phase starts from the same
// heap every time and no phase pays for the garbage of the one before.
func beginPhase() phase {
	runtime.GC()
	return phase{m0: readMeter(), start: time.Now()}
}

func (p phase) end(acc *meter) time.Duration {
	d := time.Since(p.start)
	m1 := readMeter()
	acc.allocBytes += m1.allocBytes - p.m0.allocBytes
	acc.gcCycles += m1.gcCycles - p.m0.gcCycles
	acc.gcCPU += m1.gcCPU - p.m0.gcCPU
	acc.gcPauseNs += m1.gcPauseNs - p.m0.gcPauseNs
	return d
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// leakCheck fails a repetition whose teardown left goroutines running, or
// left more than half of the fixture's heap reachable. The heap is checked
// only on untraced repetitions: a traced one keeps its spans on purpose,
// and it builds the same fixture.
func leakCheck(goroutinesBefore int, heapBefore, fixtureHeap uint64, checkHeap bool) error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore {
		if time.Now().After(deadline) {
			var b strings.Builder
			_ = pprof.Lookup("goroutine").WriteTo(&b, 1)
			fmt.Fprintln(os.Stderr, b.String())
			return fmt.Errorf("leak: %d goroutines after teardown, %d before", runtime.NumGoroutine(), goroutinesBefore)
		}
		time.Sleep(time.Millisecond)
	}
	if !checkHeap || fixtureHeap <= heapBefore {
		return nil
	}
	// The heap gets the same deadline. http.Server.Close returns before the
	// goroutines of the connections it closed have ended, and those still
	// reach the handler and through it the fixture; a goroutine count equal
	// to the one before does not prove they are gone.
	fixture := fixtureHeap - heapBefore
	for tries := 0; ; tries++ {
		after := liveHeap()
		var grown uint64
		if after > heapBefore {
			grown = after - heapBefore
		}
		if grown <= fixture/2 || grown <= 1<<20 {
			if tries > 0 {
				fmt.Fprintf(os.Stderr, "leak guard: the live heap fell back after %d retries\n", tries)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leak: live heap grew %d bytes over the repetition; the fixture held %d", grown, fixture)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

// writeTrace writes the spans of the last traced repetition and the
// per-layer summary under .bench_build/ in the working directory.
func writeTrace(name string, seed uint64, last *repResult, layers map[string]metric) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	doc := struct {
		Workload   string            `json:"workload"`
		Seed       uint64            `json:"seed"`
		GOMAXPROCS int               `json:"gomaxprocs"`
		NumCPU     int               `json:"nproc"`
		GoVersion  string            `json:"go_version"`
		Layers     map[string]metric `json:"layers"`
		Stages     []stage           `json:"stages"`
		Spans      []span            `json:"spans"`
	}{name, seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), layers, stages(name), last.spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace written to %s (%d spans)\n", path, len(last.spans))
	return nil
}
