// Command hdcbench measures the kernel hot paths — bind, distance,
// accumulate, threshold, rotate, majority, the paper's record encoding,
// level-basis construction and label decode, nearest, predict, serve, the
// sketch-indexed lookups, the cluster's key→shard ring lookup, the
// durability paths and the HTTP serving API (protocol v1 through the
// client SDK) — and emits the ns/op numbers as JSON (BENCH_kernels.json by
// default) so the performance trajectory can be tracked across changes:
//
//	go run ./cmd/hdcbench            # d=10000, writes BENCH_kernels.json
//	go run ./cmd/hdcbench -d 4096 -o -   # custom dimension, JSON to stdout
//
// It is the repository's only benchmark registry. Whole experiments are
// not timed here: perfbench's paper_tables workload times Tables 1 and 2,
// and the internal/experiments pin tests and cmd/hdcrepro regenerate the
// paper's results.
//
// Each kernel is measured -samples times in interleaved round-robin
// order — every kernel once per round, then the next round — so drift in
// the runner (thermal ramps, noisy neighbors) lands evenly across
// kernels instead of poisoning whichever one ran last. The report
// records the per-round samples; ns/op, B/op and allocs/op are the
// medians across rounds.
//
// It is also the CI bench-regression gate: -compare diffs a freshly
// measured report against a committed baseline and fails on any kernel
// that regressed past the threshold:
//
//	go run ./cmd/hdcbench -o current.json
//	go run ./cmd/hdcbench -compare BENCH_kernels.json current.json
//
// The gate is statistical, not a single-number diff: a kernel fails only
// when the median regression exceeds -max-regress AND a one-sided
// Mann-Whitney rank test on the two sample sets rejects "no slowdown" at
// α=0.05 — a noisy runner that happens to catch one bad round cannot
// fail the build, and a consistent small-sample slowdown cannot hide
// behind a lucky median. allocs/op is gated exactly: any increase fails,
// since allocation counts are deterministic per code path. Rows whose
// recorded worker counts differ between baseline and current (the
// machine-width parallel benches on machines of different width) are
// reported but not gated — their ns/op are not comparable across core
// counts; the fixed-width _w2/_w4 scaling rows exist to stay gateable
// everywhere.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"hdcirc/client"
	"hdcirc/internal/batch"
	"hdcirc/internal/bitvec"
	"hdcirc/internal/cluster"
	"hdcirc/internal/core"
	"hdcirc/internal/dataset"
	"hdcirc/internal/embed"
	"hdcirc/internal/httpapi"
	"hdcirc/internal/index"
	"hdcirc/internal/model"
	"hdcirc/internal/repl"
	"hdcirc/internal/rng"
	"hdcirc/internal/serve"
	"hdcirc/internal/vfs"
	"hdcirc/internal/wal"
)

type kernelResult struct {
	Name string `json:"name"`
	// NsPerOp, BytesPerOp and AllocsPerOp are medians across the
	// interleaved measurement rounds.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Workers is the number of goroutines actually doing the work for this
	// row: 1 for the serial kernels, the batch-pool width for pooled
	// benches, GOMAXPROCS for the RunParallel benches, the fixed width for
	// the _wN scaling rows. ns/op for rows with Workers > 1 is aggregate
	// wall time per op at that fan-in, so it is only comparable between
	// runs with equal Workers.
	Workers int `json:"workers"`
	// Samples holds the per-round ns/op measurements behind the medians;
	// -compare feeds them to the rank test.
	Samples []float64 `json:"samples_ns,omitempty"`
}

type indexReport struct {
	N          int     `json:"n"`
	Noise      float64 `json:"noise"`
	Queries    int     `json:"queries"`
	Recall     float64 `json:"recall"`      // indexed lookup returns the exact-scan symbol
	SpeedupX   float64 `json:"speedup_x"`   // linear ns/op ÷ indexed ns/op
	Candidates int     `json:"candidates"`  // resolved re-rank candidate count
	Signature  int     `json:"signature_m"` // resolved signature bits
}

type report struct {
	Dimension int    `json:"dimension"`
	GoVersion string `json:"go_version"`
	// GOMAXPROCS is the parallelism requested of the runtime; NumCPU is
	// what the machine effectively offers. A report measured with the two
	// diverging (a capped container, taskset) explains otherwise-puzzling
	// parallel rows.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// SamplesPerKernel is the number of interleaved measurement rounds.
	SamplesPerKernel int            `json:"samples_per_kernel"`
	Kernels          []kernelResult `json:"kernels"`
	Index            *indexReport   `json:"index,omitempty"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hdcbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	d := flag.Int("d", 10000, "hypervector dimension")
	out := flag.String("o", "BENCH_kernels.json", "output path, or - for stdout")
	samples := flag.Int("samples", 5, "interleaved measurement rounds per kernel; medians are reported, the rounds feed -compare's rank test")
	compare := flag.String("compare", "", "baseline report to diff against; the positional argument is the current report (compare-only mode, no benchmarks run)")
	maxRegress := flag.Float64("max-regress", 0.35, "with -compare: maximum tolerated median ns/op regression per kernel (0.35 = +35%), gated at α=0.05 significance when both reports carry samples")
	flag.Parse()
	if *compare != "" {
		if flag.NArg() != 1 {
			fatalf("-compare needs exactly one positional argument (the current report), got %d", flag.NArg())
		}
		os.Exit(runCompare(*compare, flag.Arg(0), *maxRegress))
	}
	if *d <= 0 {
		fmt.Fprintf(os.Stderr, "hdcbench: -d must be positive, got %d\n", *d)
		os.Exit(2)
	}
	if *samples < 1 {
		fmt.Fprintf(os.Stderr, "hdcbench: -samples must be at least 1, got %d\n", *samples)
		os.Exit(2)
	}

	r := rng.New(1)
	x := bitvec.Random(*d, r)
	y := bitvec.Random(*d, r)
	dst := bitvec.New(*d)

	acc := bitvec.NewAccumulator(*d)
	for i := 0; i < 9; i++ {
		acc.Add(bitvec.Random(*d, r))
	}

	nine := make([]*bitvec.Vector, 9)
	for i := range nine {
		nine[i] = bitvec.Random(*d, r)
	}

	// Paper-path fixtures: the Table 1 record (18 fields on one 24-level
	// circular basis with r = 0.1) and the source of the level-basis row.
	recEnc := embed.NewCircularEncoder(core.CircularSetR(24, *d, 0.1, rng.New(8)), 2*math.Pi)
	record := embed.NewRecordEncoder(*d, 18, 9)
	recFields := make([]embed.FieldEncoder, 18)
	recValues := make([]float64, 18)
	for i := range recFields {
		recFields[i], recValues[i] = recEnc, float64(i)/3
	}
	basisSrc := rng.New(10)

	// Label-decode fixture: Table 2's Beijing cell with the circular basis,
	// trained the way internal/experiments trains it (day and hour on
	// circular sets at r = 0.01, the year on 8 levels, each sample Y ⊗ D ⊗ H
	// bound to its temperature on the 128-level label basis). Its held-out
	// samples are the queries, so each lies as far from its nearest level
	// as the model puts it, and NearestXor's early exit skips as many words
	// as it does in Table 2.
	temps := dataset.GenTemperature(dataset.DefaultTempConfig(), 42)
	tempTrain, tempTest := dataset.SplitChronological(temps, 0.7)
	tempSrc := rng.Sub(34, "bench/beijing")
	dayEnc := embed.NewCircularEncoder(core.CircularSetR(365, *d, 0.01, tempSrc), 365)
	hourEnc := embed.NewCircularEncoder(core.CircularSetR(24, *d, 0.01, tempSrc), 24)
	yearEnc := embed.NewScalarEncoder(core.LevelSet(8, *d, tempSrc), 0, float64(temps[len(temps)-1].YearIndex+1))
	tempLo, tempHi := dataset.TempRange(tempTrain)
	labels := embed.NewScalarEncoder(core.LevelSet(128, *d, tempSrc), tempLo, tempHi)
	encodeTemp := func(s dataset.TempSample) *bitvec.Vector {
		return yearEnc.Encode(float64(s.YearIndex)).Xor(dayEnc.Encode(s.DayOfYear)).XorInPlace(hourEnc.Encode(s.HourOfDay))
	}
	reg := model.NewRegressor(*d, 35)
	for _, s := range tempTrain {
		reg.Add(encodeTemp(s), labels.Encode(s.Temp))
	}
	reg.Finalize()
	decodeQueries := make([]*bitvec.Vector, 256)
	for i := range decodeQueries {
		decodeQueries[i] = encodeTemp(tempTest[i*len(tempTest)/len(decodeQueries)])
	}

	cands := make([]*bitvec.Vector, 64)
	for i := range cands {
		cands[i] = bitvec.Random(*d, r)
	}

	const k = 32
	clf := model.NewClassifier(k, *d, 7)
	queries := make([]*bitvec.Vector, 256)
	for i := range queries {
		class := i % k
		hv := bitvec.Random(*d, rng.Sub(11, fmt.Sprintf("bench/sample/%d", i)))
		clf.Add(class, hv)
		queries[i] = hv
	}
	clf.Finalize()
	pool := batch.New(0)
	// Fixed-width pools for the _wN scaling rows: unlike the machine-width
	// pool above, their worker counts match on every machine, so the rows
	// gate in -compare everywhere and their ratios expose scaling
	// regressions (a lost parallel speedup) rather than core counts.
	pool2, pool4 := batch.New(2), batch.New(4)

	// Serving-layer fixture: the same 32-class workload behind snapshots.
	srv, err := serve.NewServer(serve.Config{Dim: *d, Classes: k, Shards: 4, Seed: 7})
	if err != nil {
		fatalf("%v", err)
	}
	var sb serve.Batch
	for i, hv := range queries {
		sb.Train = append(sb.Train, serve.Sample{Class: i % k, HV: hv})
	}
	if _, err := srv.ApplyBatch(sb); err != nil {
		fatalf("%v", err)
	}

	// Associative-lookup fixture: a 10k-symbol item memory, probed with
	// noisy (30% flipped) copies of stored items — the cleanup workload the
	// sketch index accelerates. One exact-scan twin, one auto-indexed.
	const (
		itemN       = 10000
		itemNoise   = 0.3
		itemQueries = 500
	)
	imLinear := embed.NewItemMemory(*d, 13)
	imLinear.SetIndexConfig(index.Config{Disabled: true})
	imIndexed := embed.NewItemMemory(*d, 13)
	itemSyms := make([]string, itemN)
	for i := range itemSyms {
		itemSyms[i] = fmt.Sprintf("item/%d", i)
		imLinear.Get(itemSyms[i])
		imIndexed.Get(itemSyms[i])
	}
	_, itemVecs := imIndexed.View()
	noiseSrc := rng.Sub(17, "bench/item-noise")
	itemProbes := make([]*bitvec.Vector, itemQueries)
	for i := range itemProbes {
		q := imIndexed.Get(itemSyms[(i*31)%itemN]).Clone()
		for b := 0; b < *d; b++ {
			if noiseSrc.Float64() < itemNoise {
				q.FlipBit(b)
			}
		}
		itemProbes[i] = q
	}
	imIndexed.Lookup(itemProbes[0]) // warm: build the index outside the timed loop

	// Durability fixtures. wal_append measures the log hot path — framing,
	// CRC, sequential write — on a payload sized like a 4-sample training
	// batch, with fsync disabled so the row gates the code, not the CI
	// runner's disk. recover_replay measures a full recovery: open a
	// directory holding 64 such batches and replay them into a fresh
	// server (the deterministic apply path, snapshot per record).
	tmpRoot, err := os.MkdirTemp("", "hdcbench-wal")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(tmpRoot)
	// Default 4 MiB rotation plus periodic TruncateBefore keep the log at
	// the bounded steady state a checkpointing server maintains — without
	// the compaction the file grows by ~1 GB per measurement and the row
	// benchmarks the filesystem's page-cache behavior instead of the code
	// (observed 2.5× run-to-run swings).
	appendLog, err := wal.Open(filepath.Join(tmpRoot, "append"), wal.Options{SyncEvery: -1})
	if err != nil {
		fatalf("%v", err)
	}
	defer appendLog.Close()
	walPayload := make([]byte, 4*(4+8*((*d+63)/64))+21)
	payloadSrc := rng.Sub(23, "bench/wal-payload")
	for i := range walPayload {
		walPayload[i] = byte(payloadSrc.Uint64())
	}

	recoverCfg := serve.Config{
		Dim: *d, Classes: k, Shards: 4, Seed: 7,
		WAL: &serve.WALConfig{Dir: filepath.Join(tmpRoot, "recover"), SyncEvery: -1, CheckpointEvery: -1},
	}
	recSrv, err := serve.Open(recoverCfg)
	if err != nil {
		fatalf("%v", err)
	}
	for i := 0; i < 64; i++ {
		var rb serve.Batch
		for j := 0; j < 4; j++ {
			s := queries[(4*i+j)%len(queries)]
			rb.Train = append(rb.Train, serve.Sample{Class: (4*i + j) % k, HV: s})
		}
		if _, err := recSrv.ApplyBatch(rb); err != nil {
			fatalf("%v", err)
		}
	}
	if err := recSrv.Close(); err != nil {
		fatalf("%v", err)
	}

	// Fault-seam fixtures. wal_append_faulty_disk runs the same append hot
	// path through a FaultFS with a fault armed that never matches — the
	// price of the injection seam itself, which production pays as a nil
	// check (vfs.Default) and tests pay per op. degraded_predict measures
	// the read plane of a server whose write plane died: snapshot load +
	// predict must cost the same as on a healthy server.
	faultyFS := vfs.NewFaultFS(nil)
	faultyFS.Arm(vfs.Fault{Op: vfs.OpWrite, Path: "no-such-path", Err: vfs.ErrIO})
	faultyLog, err := wal.Open(filepath.Join(tmpRoot, "faulty"), wal.Options{SyncEvery: -1, FS: faultyFS})
	if err != nil {
		fatalf("%v", err)
	}
	defer faultyLog.Close()

	degFS := vfs.NewFaultFS(nil)
	degSrv, err := serve.Open(serve.Config{
		Dim: *d, Classes: k, Shards: 4, Seed: 7,
		WAL: &serve.WALConfig{Dir: filepath.Join(tmpRoot, "degraded"), SyncEvery: -1, CheckpointEvery: -1, FS: degFS},
	})
	if err != nil {
		fatalf("%v", err)
	}
	defer degSrv.Close()
	if _, err := degSrv.ApplyBatch(sb); err != nil {
		fatalf("%v", err)
	}
	degFS.Arm(vfs.Fault{Op: vfs.OpWrite, Path: ".seg", Err: vfs.ErrNoSpace})
	if _, err := degSrv.ApplyBatch(sb); err == nil {
		fatalf("degraded fixture: faulted append succeeded")
	}
	if st := degSrv.State(); st != serve.StateDegraded {
		fatalf("degraded fixture: state %v", st)
	}

	// Serving-API-v1 fixture: the protocol handler over a loopback HTTP
	// server, driven through the client SDK — the full production path
	// (wire, decode, admission, record encode, snapshot predict / batch
	// apply). Its own serve.Server keeps the mutation-heavy ingest row
	// from skewing the in-process serving fixtures above.
	const httpFields = 2
	httpSrv, err := serve.NewServer(serve.Config{Dim: *d, Classes: k, Shards: 4, Seed: 7})
	if err != nil {
		fatalf("%v", err)
	}
	httpEnc, err := httpapi.NewScalarRecordEncoder(httpapi.ScalarRecordConfig{
		Dim: *d, Fields: httpFields, Lo: 0, Hi: 1, Levels: 64, Seed: 7,
	})
	if err != nil {
		fatalf("%v", err)
	}
	httpAPI, err := httpapi.New(httpapi.Config{Server: httpSrv, Encoder: httpEnc})
	if err != nil {
		fatalf("%v", err)
	}
	httpTS := httptest.NewServer(httpAPI)
	defer httpTS.Close()
	cli, err := client.New(httpTS.URL)
	if err != nil {
		fatalf("%v", err)
	}
	httpRecs := make([][]float64, 256)
	for i := range httpRecs {
		f := float64(i%32) / 32
		httpRecs[i] = []float64{f, 1 - f}
	}
	{
		var hb serve.Batch
		for i, rec := range httpRecs {
			hb.Train = append(hb.Train, serve.Sample{Class: i % k, HV: httpEnc.Encode(rec)})
		}
		if _, err := httpSrv.ApplyBatch(hb); err != nil {
			fatalf("%v", err)
		}
	}
	httpRow := func(i int) httpapi.IngestRow {
		label := i % k
		return httpapi.IngestRow{Label: &label, Features: httpRecs[i%len(httpRecs)]}
	}

	// Replication fixtures. repl_ship_record measures the tier's per-record
	// pipeline — primary append, frame encode + CRC, NDJSON over loopback
	// HTTP, follower decode, validate, deterministic apply — as the latency
	// from ApplyBatch on the primary to the version landing on a connected
	// in-memory follower. repl_catchup_64batch measures a cold join: a
	// fresh follower connecting to a primary 64 batches ahead and
	// converging over one catch-up stream. Both followers run fixed 2-wide
	// pools so the rows gate in -compare on machines of any width.
	shipSrv, err := serve.Open(serve.Config{
		Dim: *d, Classes: k, Shards: 4, Workers: 2, Seed: 7,
		WAL: &serve.WALConfig{Dir: filepath.Join(tmpRoot, "repl-ship"), SyncEvery: -1, CheckpointEvery: -1},
	})
	if err != nil {
		fatalf("%v", err)
	}
	defer shipSrv.Close()
	shipSource, err := repl.NewSource(repl.SourceConfig{Server: shipSrv})
	if err != nil {
		fatalf("%v", err)
	}
	shipAPI, err := httpapi.New(httpapi.Config{Server: shipSrv, Encoder: httpEnc, Replication: shipSource})
	if err != nil {
		fatalf("%v", err)
	}
	shipTS := httptest.NewServer(shipAPI)
	defer shipTS.Close()
	shipFollower, err := serve.NewServer(serve.Config{Dim: *d, Classes: k, Shards: 4, Workers: 2, Seed: 7})
	if err != nil {
		fatalf("%v", err)
	}
	defer shipFollower.Close()
	shipF, err := repl.StartFollower(context.Background(), repl.FollowerConfig{
		Server: shipFollower, PrimaryURL: shipTS.URL, AckEvery: 1,
	})
	if err != nil {
		fatalf("%v", err)
	}
	defer shipF.Close()
	shipBatch := serve.Batch{Train: []serve.Sample{{Class: 0, HV: queries[0]}}}

	catchupSrv, err := serve.Open(serve.Config{
		Dim: *d, Classes: k, Shards: 4, Seed: 7,
		WAL: &serve.WALConfig{Dir: filepath.Join(tmpRoot, "repl-catchup"), SyncEvery: -1, CheckpointEvery: -1},
	})
	if err != nil {
		fatalf("%v", err)
	}
	defer catchupSrv.Close()
	for i := 0; i < 64; i++ {
		var rb serve.Batch
		for j := 0; j < 4; j++ {
			rb.Train = append(rb.Train, serve.Sample{Class: (4*i + j) % k, HV: queries[(4*i+j)%len(queries)]})
		}
		if _, err := catchupSrv.ApplyBatch(rb); err != nil {
			fatalf("%v", err)
		}
	}
	catchupSource, err := repl.NewSource(repl.SourceConfig{Server: catchupSrv})
	if err != nil {
		fatalf("%v", err)
	}
	catchupAPI, err := httpapi.New(httpapi.Config{Server: catchupSrv, Encoder: httpEnc, Replication: catchupSource})
	if err != nil {
		fatalf("%v", err)
	}
	catchupTS := httptest.NewServer(catchupAPI)
	defer catchupTS.Close()

	// Sharded-cluster fixtures. cluster_predict_scatter measures one
	// scatter-gather prediction through the cluster client: fan /v1/scores
	// out to both shard groups over loopback HTTP, filter each response to
	// the classes its shard owns, merge exactly — the sharding tax over
	// http_predict. cluster_ingest_split measures one row through an open
	// sharded ingest stream: hashring routing on the client, per-shard
	// coalescers underneath (every 4th row also carries a symbol, so the
	// label-owner/symbol-owner split path stays hot). Both shard servers
	// carry the full 32-class workload, as the unsharded twin does — the
	// client-side ownership filter is part of what is being measured.
	const clusterShardCount = 2
	clusterSwaps := make([]*swapHandler, clusterShardCount)
	clusterEndpoints := make([]cluster.ShardEndpoints, clusterShardCount)
	for i := range clusterSwaps {
		clusterSwaps[i] = &swapHandler{}
		ts := httptest.NewServer(clusterSwaps[i])
		defer ts.Close()
		clusterEndpoints[i] = cluster.ShardEndpoints{Primary: ts.URL}
	}
	clusterMan := &cluster.Manifest{Version: 1, RingSeed: 42, Shards: clusterEndpoints}
	for i := range clusterSwaps {
		node, err := cluster.NewNode(clusterMan, i)
		if err != nil {
			fatalf("%v", err)
		}
		csrv, err := serve.NewServer(serve.Config{Dim: *d, Classes: k, Shards: 4, Seed: 7})
		if err != nil {
			fatalf("%v", err)
		}
		var cb serve.Batch
		for qi, rec := range httpRecs {
			cb.Train = append(cb.Train, serve.Sample{Class: qi % k, HV: httpEnc.Encode(rec)})
		}
		if _, err := csrv.ApplyBatch(cb); err != nil {
			fatalf("%v", err)
		}
		capi, err := httpapi.New(httpapi.Config{Server: csrv, Encoder: httpEnc, Cluster: node})
		if err != nil {
			fatalf("%v", err)
		}
		clusterSwaps[i].h.Store(http.Handler(capi))
	}
	ccli, err := client.NewClusterClient(clusterMan)
	if err != nil {
		fatalf("%v", err)
	}

	// Routing fixture: the two-shard manifest's topology (default ring
	// geometry), probed with item symbols — the key→shard step of every
	// httpapi ownership check and cluster-client route.
	topo, err := cluster.NewTopology(clusterMan)
	if err != nil {
		fatalf("%v", err)
	}
	ringSymbols := make([]string, 256)
	for i := range ringSymbols {
		ringSymbols[i] = fmt.Sprintf("sym-%d", i)
	}

	gmp := runtime.GOMAXPROCS(0)
	benches := []struct {
		name    string
		workers int
		fn      func(b *testing.B)
	}{
		{"bind", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x.XorInto(y, dst)
			}
		}},
		{"distance", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = x.HammingDistance(y)
			}
		}},
		{"accumulate", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acc.Add(x)
			}
		}},
		{"threshold", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = acc.Threshold(bitvec.TieZero, nil)
			}
		}},
		{"rotate", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = x.RotateBits(1)
			}
		}},
		{"majority9_csa", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = bitvec.Majority(nine, bitvec.TieZero, nil)
			}
		}},
		{"encode_record", 1, func(b *testing.B) {
			// One Table 1 sample: 18 key-bound fields bundled on the
			// bit-sliced kernel.
			for i := 0; i < b.N; i++ {
				_ = record.EncodeRecord(recValues, recFields)
			}
		}},
		{"basis_level512", 1, func(b *testing.B) {
			// Algorithm 1 at the Mars Express anomaly basis size.
			for i := 0; i < b.N; i++ {
				_ = core.LevelSetR(512, *d, 0, basisSrc)
			}
		}},
		{"decode_bound128", 1, func(b *testing.B) {
			// The regressor's φℓ⁻¹ step: M ⊗ φ(x̂) fused with the scan
			// of the label basis (ScalarEncoder.DecodeBound).
			for i := 0; i < b.N; i++ {
				_ = reg.Predict(decodeQueries[i%len(decodeQueries)], labels)
			}
		}},
		{"nearest64", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = bitvec.Nearest(x, cands)
			}
		}},
		{"predict_k32", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = clf.Predict(queries[i%len(queries)])
			}
		}},
		{"predict_batch256", pool.Workers(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = clf.PredictBatch(pool, queries)
			}
		}},
		{"predict_batch256_w2", 2, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = clf.PredictBatch(pool2, queries)
			}
		}},
		{"predict_batch256_w4", 4, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = clf.PredictBatch(pool4, queries)
			}
		}},
		{"serve_predict", 1, func(b *testing.B) {
			snap := srv.Snapshot()
			for i := 0; i < b.N; i++ {
				_, _ = snap.Predict(queries[i%len(queries)])
			}
		}},
		{"serve_predict_par", gmp, func(b *testing.B) {
			// GOMAXPROCS concurrent readers against the lock-free snapshot;
			// ns/op here is aggregate wall time per prediction, so
			// 1e9/ns_per_op is the served QPS at that fan-in.
			b.RunParallel(func(pb *testing.PB) {
				snap := srv.Snapshot()
				i := 0
				for pb.Next() {
					_, _ = snap.Predict(queries[i%len(queries)])
					i++
				}
			})
		}},
		{"serve_predict_par_w2", 2, fixedParPredict(srv, queries, 2)},
		{"serve_predict_par_w4", 4, fixedParPredict(srv, queries, 4)},
		{"serve_apply_batch256", srv.Pool().Workers(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := srv.ApplyBatch(sb); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"index_build_n10k", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = index.New(itemVecs, index.Config{})
			}
		}},
		{"index_lookup_linear_n10k", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, _ = imLinear.Lookup(itemProbes[i%len(itemProbes)])
			}
		}},
		{"index_lookup_indexed_n10k", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, _ = imIndexed.Lookup(itemProbes[i%len(itemProbes)])
			}
		}},
		{"wal_append", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seq, err := appendLog.Append(walPayload)
				if err != nil {
					b.Fatal(err)
				}
				if seq%4096 == 0 && seq > 8192 {
					if err := appendLog.TruncateBefore(seq - 8192); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{"wal_append_faulty_disk", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seq, err := faultyLog.Append(walPayload)
				if err != nil {
					b.Fatal(err)
				}
				if seq%4096 == 0 && seq > 8192 {
					if err := faultyLog.TruncateBefore(seq - 8192); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{"degraded_predict", 1, func(b *testing.B) {
			// Reads on a degraded server: snapshot load + predict, off the
			// last published snapshot. The write plane being down must not
			// tax this path.
			for i := 0; i < b.N; i++ {
				snap := degSrv.Snapshot()
				_, _ = snap.Predict(queries[i%len(queries)])
			}
		}},
		{"http_predict", 1, func(b *testing.B) {
			// One op = one unary /v1/predict round trip through the client:
			// HTTP framing, admission, JSON decode, record encode, snapshot
			// predict, response. The wire tax over serve_predict.
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if _, _, err := cli.PredictOne(ctx, httpRecs[i%len(httpRecs)]); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"http_ingest_stream", 1, func(b *testing.B) {
			// One op = one row through an open NDJSON bulk-ingest stream,
			// amortizing the server-side 256-row batch coalescing — the
			// sustained bulk-load throughput of the serving API.
			is, err := cli.Ingest(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if err := is.Send(httpRow(i)); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := is.Close(); err != nil {
				b.Fatal(err)
			}
		}},
		{"ring_lookup", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = topo.ShardForItem(ringSymbols[i%len(ringSymbols)])
			}
		}},
		{"cluster_predict_scatter", 1, func(b *testing.B) {
			// One op = one prediction scattered to both shard groups and
			// merged client-side; two loopback round trips per op, so the
			// delta over http_predict is the fan-out + ownership-filtered
			// merge.
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if _, _, err := ccli.PredictOne(ctx, httpRecs[i%len(httpRecs)]); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"cluster_ingest_split", 1, func(b *testing.B) {
			// One op = one row through the sharded ingest stream: hashring
			// route, per-shard coalescer append, occasional label/symbol
			// split into two wire rows.
			cis, err := ccli.Ingest(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				row := httpRow(i)
				if i%4 == 0 {
					row.Symbol = fmt.Sprintf("item/%d", i%64)
				}
				if err := cis.Send(row); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := cis.Close(); err != nil {
				b.Fatal(err)
			}
		}},
		{"repl_ship_record", 1, func(b *testing.B) {
			// One op = one record shipped end to end: ApplyBatch on the
			// primary through the open replicate-stream to the follower's
			// applied version. Replication latency per record, loopback wire
			// included.
			for i := 0; i < b.N; i++ {
				snap, err := shipSrv.ApplyBatch(shipBatch)
				if err != nil {
					b.Fatal(err)
				}
				for shipFollower.Snapshot().Version() < snap.Version() {
					runtime.Gosched()
				}
			}
		}},
		{"repl_catchup_64batch", 2, func(b *testing.B) {
			// One op = a cold follower join: connect to a primary 64 batches
			// ahead, stream the history (checkpoint seed or log suffix — the
			// source's choice), converge, tear down.
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				fsrv, err := serve.NewServer(serve.Config{Dim: *d, Classes: k, Shards: 4, Workers: 2, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				f, err := repl.StartFollower(ctx, repl.FollowerConfig{Server: fsrv, PrimaryURL: catchupTS.URL})
				if err != nil {
					b.Fatal(err)
				}
				for fsrv.Snapshot().Version() < 64 {
					runtime.Gosched()
				}
				f.Close()
				if err := fsrv.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"recover_replay", srv.Pool().Workers(), func(b *testing.B) {
			// One op = a complete crash recovery of the 64-batch directory:
			// checkpoint scan, log scan + CRC verification, deterministic
			// replay publishing a snapshot per record.
			for i := 0; i < b.N; i++ {
				rs, err := serve.Open(recoverCfg)
				if err != nil {
					b.Fatal(err)
				}
				if v := rs.Snapshot().Version(); v != 64 {
					b.Fatalf("recovered version %d, want 64", v)
				}
				if err := rs.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	rep := report{
		Dimension: *d, GoVersion: runtime.Version(),
		GOMAXPROCS: gmp, NumCPU: runtime.NumCPU(),
		SamplesPerKernel: *samples,
	}
	// Interleaved rounds: every kernel once per round, so runner drift
	// spreads across all kernels instead of concentrating in the last.
	type measure struct {
		ns     []float64
		bytes  []int64
		allocs []int64
	}
	measures := make([]measure, len(benches))
	for round := 0; round < *samples; round++ {
		fmt.Fprintf(os.Stderr, "round %d/%d\n", round+1, *samples)
		for bi, bench := range benches {
			res := testing.Benchmark(bench.fn)
			measures[bi].ns = append(measures[bi].ns, float64(res.T.Nanoseconds())/float64(res.N))
			measures[bi].bytes = append(measures[bi].bytes, res.AllocedBytesPerOp())
			measures[bi].allocs = append(measures[bi].allocs, res.AllocsPerOp())
		}
	}
	ns := make(map[string]float64, len(benches))
	for bi, bench := range benches {
		m := measures[bi]
		nsMed := medianFloat(m.ns)
		ns[bench.name] = nsMed
		rep.Kernels = append(rep.Kernels, kernelResult{
			Name:        bench.name,
			NsPerOp:     nsMed,
			BytesPerOp:  medianInt(m.bytes),
			AllocsPerOp: medianInt(m.allocs),
			Workers:     bench.workers,
			Samples:     m.ns,
		})
		lo, hi := m.ns[0], m.ns[0]
		for _, v := range m.ns[1:] {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		fmt.Fprintf(os.Stderr, "%-26s %12.1f ns/op [%.1f..%.1f] %8d B/op %6d allocs/op %4d workers\n",
			bench.name, nsMed, lo, hi, medianInt(m.bytes), medianInt(m.allocs), bench.workers)
	}

	// Measured recall of the indexed lookup against the exact scan over
	// the same probes — the accuracy side of the latency trade the rows
	// above quantify.
	ix := index.New(itemVecs, index.Config{})
	hits := 0
	for _, q := range itemProbes {
		ws, _, _ := imLinear.Lookup(q)
		gs, _, _ := imIndexed.Lookup(q)
		if gs == ws {
			hits++
		}
	}
	rep.Index = &indexReport{
		N:          itemN,
		Noise:      itemNoise,
		Queries:    itemQueries,
		Recall:     float64(hits) / itemQueries,
		SpeedupX:   ns["index_lookup_linear_n10k"] / ns["index_lookup_indexed_n10k"],
		Candidates: ix.Candidates(),
		Signature:  ix.SignatureBits(),
	}
	fmt.Fprintf(os.Stderr, "indexed lookup: recall %.4f, speedup %.1fx (n=%d, noise=%.2f, C=%d, m=%d)\n",
		rep.Index.Recall, rep.Index.SpeedupX, itemN, itemNoise, ix.Candidates(), ix.SignatureBits())

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatalf("%v", err)
	}
}

// swapHandler defers handler installation until after its httptest server
// has a URL: the cluster fixture's manifest must name every endpoint
// before the per-shard handlers (which need the manifest) can be built.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

// fixedParPredict is a RunParallel-style snapshot-predict bench pinned to
// an exact worker count, so the row's Workers field matches on machines of
// any width and the row stays gateable in -compare.
func fixedParPredict(srv *serve.Server, queries []*bitvec.Vector, workers int) func(*testing.B) {
	return func(b *testing.B) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				snap := srv.Snapshot()
				for {
					i := next.Add(1)
					if i > int64(b.N) {
						return
					}
					_, _ = snap.Predict(queries[int(i)%len(queries)])
				}
			}()
		}
		wg.Wait()
	}
}

// medianFloat returns the median of xs (0 when empty).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// medianInt returns the median of xs (0 when empty), rounding down on
// even-length inputs so a count median is still a count.
func medianInt(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mannWhitneyGreater reports whether cur is stochastically greater than
// base at one-sided α=0.05, via the rank-sum U statistic under the normal
// approximation with continuity correction (ties split the pair). With
// the 5-sample default the test needs near-total separation of the two
// sample sets to fire — exactly the "is this real or runner noise" bar a
// CI gate wants. Fewer than two samples on either side cannot carry a
// rank test; the caller falls back to the median comparison alone.
func mannWhitneyGreater(base, cur []float64) bool {
	n, m := len(base), len(cur)
	var u float64
	for _, c := range cur {
		for _, b := range base {
			switch {
			case c > b:
				u++
			case c == b:
				u += 0.5
			}
		}
	}
	mean := float64(n*m) / 2
	sd := math.Sqrt(float64(n*m*(n+m+1)) / 12)
	z := (u - mean - 0.5) / sd
	return z >= 1.645
}

// loadReport reads and decodes a benchmark report.
func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// runCompare diffs current against baseline and returns the process exit
// code: 0 when no gated kernel regressed, 1 otherwise. A kernel regresses
// when (a) its median ns/op worsened past maxRegress AND the Mann-Whitney
// rank test on the two sample sets confirms the slowdown at α=0.05 (a
// report without samples — a legacy baseline — falls back to the median
// comparison alone), or (b) its allocs/op increased at all: allocation
// counts are deterministic per code path, so the alloc gate is exact.
// Kernels present in only one report are informational (new benches
// appear, old ones retire); kernels whose worker counts differ are
// reported but not gated, since aggregate parallel ns/op is
// machine-width-dependent.
func runCompare(basePath, curPath string, maxRegress float64) int {
	base, err := loadReport(basePath)
	if err != nil {
		fatalf("baseline: %v", err)
	}
	cur, err := loadReport(curPath)
	if err != nil {
		fatalf("current: %v", err)
	}
	if base.Dimension != cur.Dimension {
		fmt.Fprintf(os.Stderr, "note: dimension mismatch (baseline d=%d, current d=%d); comparing anyway\n",
			base.Dimension, cur.Dimension)
	}
	baseBy := make(map[string]kernelResult, len(base.Kernels))
	for _, kr := range base.Kernels {
		baseBy[kr.Name] = kr
	}
	failed := 0
	fmt.Printf("%-26s %14s %14s %9s  %s\n", "kernel", "baseline ns/op", "current ns/op", "delta", "verdict")
	for _, kc := range cur.Kernels {
		kb, ok := baseBy[kc.Name]
		if !ok {
			fmt.Printf("%-26s %14s %14.1f %9s  new (not gated)\n", kc.Name, "-", kc.NsPerOp, "-")
			continue
		}
		delete(baseBy, kc.Name)
		delta := kc.NsPerOp/kb.NsPerOp - 1
		if kb.Workers != kc.Workers {
			fmt.Printf("%-26s %14.1f %14.1f %+8.1f%%  workers %d→%d (not gated)\n",
				kc.Name, kb.NsPerOp, kc.NsPerOp, 100*delta, kb.Workers, kc.Workers)
			continue
		}
		verdict := "ok"
		if delta > maxRegress {
			if len(kb.Samples) >= 2 && len(kc.Samples) >= 2 && !mannWhitneyGreater(kb.Samples, kc.Samples) {
				verdict = "ok (median past limit, not significant at α=0.05)"
			} else {
				verdict = fmt.Sprintf("REGRESSION (limit +%.0f%%)", 100*maxRegress)
				failed++
			}
		}
		if kc.AllocsPerOp > kb.AllocsPerOp {
			verdict = fmt.Sprintf("ALLOC REGRESSION (%d → %d allocs/op)", kb.AllocsPerOp, kc.AllocsPerOp)
			failed++
		}
		fmt.Printf("%-26s %14.1f %14.1f %+8.1f%%  %s\n", kc.Name, kb.NsPerOp, kc.NsPerOp, 100*delta, verdict)
	}
	for name := range baseBy {
		fmt.Printf("%-26s %14.1f %14s %9s  missing from current (not gated)\n", name, baseBy[name].NsPerOp, "-", "-")
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "hdcbench: %d kernel(s) regressed (median +%.0f%% with significance, or any allocs/op increase)\n", failed, 100*maxRegress)
		return 1
	}
	fmt.Fprintf(os.Stderr, "hdcbench: no kernel regressed beyond +%.0f%% (α=0.05) and no allocs/op increased\n", 100*maxRegress)
	return 0
}
