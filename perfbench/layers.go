package main

import (
	"fmt"
	"strings"
)

// perLayer lists the per-layer metrics of a traced run with their units.
// A layer a workload does not exercise reports 0 there.
var perLayer = []struct{ name, unit string }{
	{"experiments.table1_s", "s"},
	{"experiments.table2_s", "s"},
	{"dataset.gen_ms", "ms"},
	{"core.basis_ms.random", "ms"},
	{"core.basis_ms.level", "ms"},
	{"core.basis_ms.circular", "ms"},
	{"embed.encode_us", "us"},
	{"embed.encode_calls", "count"},
	{"model.add_us", "us"},
	{"model.predict_us", "us"},
	{"client.self_us", "us"},
	{"client.req_bytes_per_op", "B"},
	{"client.resp_bytes_per_op", "B"},
	{"client.predict_p50_ms", "ms"},
	{"client.predict_p90_ms", "ms"},
	{"client.predict_p99_ms", "ms"},
	{"client.predict_samples", "count"},
	{"client.train_p50_ms", "ms"},
	{"client.train_p99_ms", "ms"},
	{"client.train_samples", "count"},
	{"client.visible_p50_ms", "ms"},
	{"cluster.scatter_skew_us", "us"},
	{"cluster.rows_per_shard_max", "rows"},
	{"cluster.rows_per_shard_min", "rows"},
	{"cluster.requests_per_predict", "count"},
	{"httpapi.predict.busy_us", "us"},
	{"httpapi.scores.busy_us", "us"},
	{"httpapi.train.busy_us", "us"},
	{"httpapi.ingest.busy_us", "us"},
	{"httpapi.wait_us", "us"},
	{"httpapi.errors", "count"},
	{"serve.predict_us", "us"},
	{"serve.apply_us", "us"},
	{"serve.versions", "count"},
	{"wal.write_bytes_per_row", "B"},
	{"wal.write_calls", "count"},
	{"wal.sync_calls", "count"},
	{"wal.sync_us", "us"},
	{"wal.checkpoints", "count"},
	{"repl.ship_us.p50", "us"},
	{"repl.ship_us.p90", "us"},
	{"repl.bytes_per_record", "B"},
	{"repl.max_lag", "versions"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.goroutines_delta", "count"},
}

// overheadOf names the end-to-end metrics whose tracing overhead a traced
// run reports, as trace.overhead.<name>_pct. Peak RSS and the success
// ratio are process-wide and are left out.
var overheadOf = []string{
	"setup_s", "ops_per_s", "ingest_rows_per_s", "predict_mean_ms",
	"train_mean_ms", "visible_mean_ms", "alloc_mb",
}

// perLayerMetrics takes the median of every per-layer figure over the
// traced repetitions and adds the tracing overhead: the traced end-to-end
// figures against the untraced ones of the same run, in percent.
func perLayerMetrics(traced []*repResult, plain, tracedE2E map[string]metric) map[string]metric {
	out := map[string]metric{}
	for _, l := range perLayer {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.layers[l.name])
		}
		out[l.name] = metric{Value: quantile(xs, 0.5), Unit: l.unit}
	}
	for _, name := range overheadOf {
		base := plain[name].Value
		pct := 0.0
		if base != 0 {
			pct = (tracedE2E[name].Value - base) / base * 100
		}
		out["trace.overhead."+name+"_pct"] = metric{Value: pct, Unit: "%"}
	}
	return out
}

// addRuntimeLayers records the runtime counters of a repetition's timed
// phases.
func addRuntimeLayers(r *repResult) {
	r.layers["runtime.gc_cycles"] = r.timed.gcCycles
	r.layers["runtime.gc_pause_ms"] = r.timed.gcPauseNs / 1e6
	r.layers["runtime.gc_cpu_s"] = r.timed.gcCPU
}

// addSpanLayers derives the client, cluster and httpapi figures of one
// traced repetition from its spans. Loop operations are the spans named
// "op predict" and "op train"; client request spans are their children,
// and each server span points at the client span of its request.
func addSpanLayers(r *repResult) {
	byID := map[uint64]*span{}
	children := map[uint64][]*span{}
	server := map[uint64]*span{}
	for i := range r.spans {
		s := &r.spans[i]
		byID[s.ID] = s
		switch {
		case strings.HasPrefix(s.Name, "client "):
			if s.Parent != 0 {
				children[s.Parent] = append(children[s.Parent], s)
			}
		case strings.HasPrefix(s.Name, "server "):
			if s.Req != 0 {
				server[s.Req] = s
			}
		}
	}
	var ops, predicts int
	var self, reqBytes, respBytes, requests int64
	var skews []float64
	for i := range r.spans {
		s := &r.spans[i]
		if s.Name != "op predict" && s.Name != "op train" {
			continue
		}
		ops++
		var kids []interval
		for _, c := range children[s.ID] {
			kids = append(kids, c.interval())
			reqBytes += c.ReqBytes
			respBytes += c.RespBytes
		}
		self += selfTime(s.interval(), kids)
		if s.Name == "op predict" {
			predicts++
			requests += int64(len(kids))
			if len(kids) > 1 {
				lo, hi := kids[0].end-kids[0].start, kids[0].end-kids[0].start
				for _, k := range kids[1:] {
					d := k.end - k.start
					lo, hi = min(lo, d), max(hi, d)
				}
				skews = append(skews, float64(hi-lo)/1e3)
			}
		}
	}
	r.layers["client.self_us"] = perOp(self, ops) / 1e3
	r.layers["client.req_bytes_per_op"] = perOp(reqBytes, ops)
	r.layers["client.resp_bytes_per_op"] = perOp(respBytes, ops)
	r.layers["cluster.requests_per_predict"] = perOp(requests, predicts)
	if len(skews) > 0 {
		r.layers["cluster.scatter_skew_us"] = quantile(skews, 0.5)
	}

	busy := map[string][]int64{}
	var waits []int64
	var errs int
	for _, s := range server {
		busy[s.Name] = append(busy[s.Name], s.End-s.Start)
		if s.Status >= 400 {
			errs++
		}
		if c, ok := byID[s.Req]; ok && !strings.HasSuffix(s.Name, ":stream") {
			waits = append(waits, (c.End-c.Start)-(s.End-s.Start))
		}
	}
	mean := func(xs []int64) float64 {
		var sum int64
		for _, x := range xs {
			sum += x
		}
		return perOp(sum, len(xs)) / 1e3
	}
	r.layers["httpapi.predict.busy_us"] = mean(busy["server /v1/predict"])
	r.layers["httpapi.scores.busy_us"] = mean(busy["server /v1/scores"])
	r.layers["httpapi.train.busy_us"] = mean(busy["server /v1/train"])
	var ingest int64
	for _, d := range busy["server /v1/ingest:stream"] {
		ingest += d
	}
	r.layers["httpapi.ingest.busy_us"] = perOp(ingest, r.ingestRows) / 1e3
	r.layers["httpapi.wait_us"] = mean(waits)
	r.layers["httpapi.errors"] = float64(errs)
}

// latencyLayers records the client-observed medians and tails, which do
// not repeat well enough to gate, with the sample counts behind them.
func latencyLayers(r *repResult) {
	r.layers["client.predict_p50_ms"] = quantile(msOf(r.predict), 0.5)
	r.layers["client.predict_p90_ms"] = quantile(msOf(r.predict), 0.9)
	r.layers["client.train_p50_ms"] = quantile(msOf(r.train), 0.5)
	r.layers["client.visible_p50_ms"] = quantile(msOf(r.visible), 0.5)
	r.layers["client.predict_p99_ms"] = quantile(msOf(r.predict), 0.99)
	r.layers["client.predict_samples"] = float64(len(r.predict))
	r.layers["client.train_p99_ms"] = quantile(msOf(r.train), 0.99)
	r.layers["client.train_samples"] = float64(len(r.train))
}

func printPerLayer(m map[string]metric) {
	for _, l := range perLayer {
		fmt.Printf("layer %s %.6g %s\n", l.name, m[l.name].Value, l.unit)
	}
	for _, name := range overheadOf {
		k := "trace.overhead." + name + "_pct"
		fmt.Printf("layer %s %.3g %%\n", k, m[k].Value)
	}
}

// stage is one north-star pipeline stage and the seam, if any, that
// measures it from outside the program.
type stage struct {
	Path    string `json:"path"`
	Stage   string `json:"stage"`
	Measure string `json:"measured_by"`
}

const notMeasured = "not measured"

// stages lists every read and write stage of the north star. Stages the
// outside seams cannot separate stay in the list as "not measured", so
// in-program tracing knows where to start.
func stages(workload string) []stage {
	if workload == "paper_tables" {
		return []stage{
			{"tables", "dataset generation", "dataset.gen_ms"},
			{"tables", "basis construction", "core.basis_ms.*"},
			{"tables", "encode", "embed.encode_us (Table 1 test split)"},
			{"tables", "bundle (train)", "model.add_us"},
			{"tables", "similarity search (predict)", "model.predict_us"},
			{"tables", "Table 1 / Table 2", "experiments.table1_s / experiments.table2_s"},
		}
	}
	return []stage{
		{"read", "decode", notMeasured},
		{"read", "admission wait", notMeasured},
		{"read", "encode", "embed.encode_us (encoder wrapper)"},
		{"read", "snapshot predict", "serve.predict_us (direct Snapshot.Predict, outside requests)"},
		{"read", "respond", notMeasured},
		{"read", "wire and queueing outside the handler", "httpapi.wait_us"},
		{"write", "validate", notMeasured},
		{"write", "WAL append", "wal.write_calls, wal.write_bytes_per_row (counted)"},
		{"write", "fsync", "wal.sync_calls (counted; the log is in memory, so not timed on disk)"},
		{"write", "apply", "serve.apply_us (train handler minus encode and log time)"},
		{"write", "shard rebuild", notMeasured},
		{"write", "publish", "serve.versions (SubscribeApplied)"},
		{"write", "ship", "repl.ship_us, repl.bytes_per_record"},
		{"write", "follower apply", notMeasured + " (inside repl.ship_us)"},
	}
}

func printStages(workload string) {
	for _, s := range stages(workload) {
		fmt.Printf("stage %s %s: %s\n", s.Path, s.Stage, s.Measure)
	}
}
