package main

import (
	"errors"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"sticking out", []interval{{-20, 10}, {90, 150}}, 80},
		{"outside", []interval{{120, 130}}, 100},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"covering", []interval{{0, 100}, {50, 70}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestPerOp(t *testing.T) {
	if got := perOp(3000, 4); got != 750 {
		t.Errorf("perOp(3000, 4) = %v, want 750", got)
	}
	if got := perOp(3000, 0); got != 0 {
		t.Errorf("perOp with no operations = %v, want 0", got)
	}
}

func TestSpanLayersBytesAndSelfTime(t *testing.T) {
	// Two predicts, each scattered to two shards, and one train.
	r := &repResult{layers: map[string]float64{}, ingestRows: 10, spans: []span{
		{ID: 1, Name: "op predict", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Req: 2, Name: "client /v1/scores", Start: 100, End: 600, ReqBytes: 100, RespBytes: 40},
		{ID: 3, Parent: 1, Req: 3, Name: "client /v1/scores", Start: 150, End: 900, ReqBytes: 100, RespBytes: 40},
		{ID: 4, Parent: 2, Req: 2, Name: "server /v1/scores", Start: 200, End: 500},
		{ID: 5, Parent: 3, Req: 3, Name: "server /v1/scores", Start: 300, End: 800, Status: 503},
		{ID: 6, Name: "op train", Start: 2000, End: 3000},
		{ID: 7, Parent: 6, Req: 7, Name: "client /v1/train", Start: 2100, End: 2900, ReqBytes: 300, RespBytes: 20},
		{ID: 8, Parent: 7, Req: 7, Name: "server /v1/train", Start: 2200, End: 2800},
		{ID: 9, Name: "op predict", Start: 4000, End: 4500},
		{ID: 10, Parent: 9, Req: 10, Name: "client /v1/scores", Start: 4100, End: 4300, ReqBytes: 100, RespBytes: 40},
		{ID: 11, Parent: 9, Req: 11, Name: "client /v1/scores", Start: 4100, End: 4400, ReqBytes: 100, RespBytes: 40},
		{ID: 12, Name: "op ingest", Start: 5000, End: 9000},
		{ID: 13, Parent: 12, Req: 13, Name: "client /v1/ingest:stream", Start: 5000, End: 9000, ReqBytes: 5000},
		{ID: 14, Parent: 13, Req: 13, Name: "server /v1/ingest:stream", Start: 5100, End: 8100},
	}}
	addSpanLayers(r)
	want := map[string]float64{
		// op self times: 1000-800, 1000-800 and 500-300 ns
		"client.self_us":               0.2,
		"client.req_bytes_per_op":      (100 + 100 + 300 + 100 + 100) / 3.0,
		"client.resp_bytes_per_op":     (40 + 40 + 20 + 40 + 40) / 3.0,
		"cluster.requests_per_predict": 2,
		"httpapi.scores.busy_us":       0.4,
		"httpapi.train.busy_us":        0.6,
		"httpapi.ingest.busy_us":       0.3, // 3000 ns over 10 rows
		"httpapi.errors":               1,
		// unary waits: 500-300, 750-500, 800-600 ns
		"httpapi.wait_us": (200 + 250 + 200) / 3.0 / 1e3,
	}
	for k, v := range want {
		if got := r.layers[k]; abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
	// Scatter skews: |500-750| = 250 ns and |200-300| = 100 ns; median 0.175 µs.
	if got := r.layers["cluster.scatter_skew_us"]; abs(got-0.175) > 1e-9 {
		t.Errorf("cluster.scatter_skew_us = %v, want 0.175", got)
	}
}

func TestEndToEndTakesBestRepetitionAndMedians(t *testing.T) {
	ms := func(xs ...float64) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(x * float64(time.Millisecond))
		}
		return out
	}
	// The second repetition is the faster on everything but train latency.
	reps := []*repResult{
		{setups: ms(10, 30), work: time.Second, workOps: 100, ingest: time.Second, ingestRows: 50,
			predict: ms(1, 3), train: ms(2), visible: ms(4), attempted: 10, timed: meter{allocBytes: 1e6}},
		{setups: ms(20), work: time.Second, workOps: 200, ingest: 500 * time.Millisecond, ingestRows: 50,
			predict: ms(1, 1), train: ms(3), visible: ms(2), attempted: 10, failed: 1, timed: meter{allocBytes: 3e6}},
	}
	m := endToEndMetrics(reps)
	want := map[string]float64{
		"setup_s": 0.02, "ops_per_s": 200, "ingest_rows_per_s": 100,
		"predict_mean_ms": 1, "train_mean_ms": 2, "visible_mean_ms": 2,
		"alloc_mb": 2, "ok_ratio": 0.95,
	}
	for name, w := range want {
		if got := m[name].Value; abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	if len(m) != len(endToEnd) {
		t.Errorf("%d metrics, want every end-to-end metric (%d)", len(m), len(endToEnd))
	}
}

func TestShipStatsPairsVersionsAndFindsLag(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	primary := map[uint64]time.Time{1: at(0), 2: at(10), 3: at(20)}
	follower := map[uint64]time.Time{1: at(5), 2: at(30), 3: at(30)}
	ship, lag := shipStats(primary, follower)
	if len(ship) != 3 {
		t.Fatalf("ship has %d samples, want 3", len(ship))
	}
	if got := quantile(ship, 0.5); got != 10 {
		t.Errorf("median ship = %v µs, want 10", got)
	}
	// At t=20 the primary publishes 3 while the follower is still at 1.
	if lag != 2 {
		t.Errorf("max lag = %d, want 2", lag)
	}
}

func TestMemFSBehavesLikeAFilesystem(t *testing.T) {
	m := newMemFS()
	if err := m.MkdirAll("/wal/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := m.OpenFile("/wal/seg-1", os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenFile("/wal/seg-1", os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644); !errors.Is(err, fs.ErrExist) {
		t.Errorf("exclusive create of an existing file: %v, want ErrExist", err)
	}
	f.Write([]byte("hello "))
	r, err := m.Open("/wal/seg-1")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("world"))
	got, _ := io.ReadAll(r)
	if string(got) != "hello world" {
		t.Errorf("reader saw %q, want every write", got)
	}
	if _, err := r.Seek(6, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(r)
	if string(got) != "world" {
		t.Errorf("after seek read %q", got)
	}
	if err := m.Truncate("/wal/seg-1", 5); err != nil {
		t.Fatal(err)
	}
	if fi, _ := m.Stat("/wal/seg-1"); fi.Size() != 5 {
		t.Errorf("size after truncate = %d, want 5", fi.Size())
	}
	if err := m.Rename("/wal/seg-1", "/wal/seg-2"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stat("/wal/seg-1"); !os.IsNotExist(err) {
		t.Errorf("stat of renamed-away file: %v, want not-exist", err)
	}
	entries, err := m.ReadDir("/wal")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 || names[0] != "seg-2" || names[1] != "sub" || !entries[0].Type().IsRegular() {
		t.Errorf("ReadDir = %v, want [seg-2 sub] with seg-2 regular", names)
	}
	if err := m.Remove("/wal/seg-2"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenFile("/nodir/x", os.O_CREATE|os.O_WRONLY, 0o644); !os.IsNotExist(err) {
		t.Errorf("create in a missing directory: %v, want not-exist", err)
	}
}

func TestRefusalsCountRefusedAndFailedRequests(t *testing.T) {
	for _, tr := range []*tracer{nil, newTracer()} {
		var c refusals
		n, err := listen()
		if err != nil {
			t.Fatal(err)
		}
		n.serve(tr.handler("node", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/refuse" {
				http.Error(w, "busy", http.StatusTooManyRequests)
				return
			}
			io.WriteString(w, "ok")
		}), &c))
		gone, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		gone.Close()
		tp := &http.Transport{}
		hc := &http.Client{Transport: tr.transport(tp, &c)}
		for _, url := range []string{n.url + "/ok", n.url + "/refuse", "http://" + gone.Addr().String() + "/"} {
			if resp, err := hc.Get(url); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		tp.CloseIdleConnections()
		n.close()
		if c.responses.Load() != 1 || c.transport.Load() != 1 || c.total() != 2 {
			t.Errorf("traced=%v: %d refused responses and %d transport failures, want 1 and 1", tr != nil, c.responses.Load(), c.transport.Load())
		}
	}
}

func TestNodeCloseWaitsForRunningHandlers(t *testing.T) {
	n, err := listen()
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	var exited atomic.Bool
	n.serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-r.Context().Done()
		time.Sleep(20 * time.Millisecond) // work that outlives the connection
		exited.Store(true)
	}))
	tp := &http.Transport{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := (&http.Client{Transport: tp}).Get(n.url); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	n.close()
	if !exited.Load() {
		t.Error("close returned while a handler was still running")
	}
	<-done
	tp.CloseIdleConnections()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
