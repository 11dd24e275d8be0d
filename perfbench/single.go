package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hdcirc/client"
	"hdcirc/internal/httpapi"
	"hdcirc/internal/serve"
)

// singleLoopOps is the closed loop's length: a fixed, seed-independent
// schedule, so that bytes allocated per repetition repeat.
const singleLoopOps = 3000

// singleNode is one in-memory server behind httpapi on a loopback
// listener, driven through the client on two connections.
type singleNode struct {
	d           *servedData
	afterIngest predictions
	afterLoop   predictions
}

func newSingleNode(seed uint64) (workload, error) {
	// Five times the paper's training split keeps the bulk ingest near
	// half a second, long enough to time steadily.
	d := newServedData(seed, 5)
	rows := make([]int, len(d.train))
	for i := range rows {
		rows[i] = i
	}
	w := &singleNode{d: d}
	var err error
	if w.afterIngest, err = reference(d, rows); err != nil {
		return nil, err
	}
	for i := uint64(1); i <= singleLoopOps; i++ {
		if !isRead(i) {
			rows = append(rows, int(i)%len(d.train))
		}
	}
	if w.afterLoop, err = reference(d, rows); err != nil {
		return nil, err
	}
	return w, nil
}

type singleFixture struct {
	srv     *serve.Server
	node    *node
	tp      *http.Transport
	cli     *client.Client
	pub     *publishLog
	refused refusals
	once    sync.Once
}

func startSingle(ctx context.Context, seed uint64, tr *tracer, enc *callCounter) (*singleFixture, error) {
	srv, err := serve.NewServer(serveConfig(seed))
	if err != nil {
		return nil, err
	}
	f := &singleFixture{srv: srv, tp: newTransport(), pub: watchPublishes(srv)}
	if f.node, err = listen(); err != nil {
		f.close()
		return nil, err
	}
	api, err := httpapi.New(httpapi.Config{Server: srv, Encoder: countEncoder(newRecordEncoder(seed), enc)})
	if err != nil {
		f.close()
		return nil, err
	}
	f.node.serve(tr.handler("node", api, &f.refused))
	hc := &http.Client{Transport: tr.transport(f.tp, &f.refused)}
	if f.cli, err = client.New(f.node.url, client.WithHTTPClient(hc)); err == nil {
		err = answers(ctx, hc, f.node.url)
	}
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (w *singleNode) setUp(ctx context.Context) (func(), error) {
	f, err := startSingle(ctx, w.d.seed, nil, nil)
	if err != nil {
		return nil, err
	}
	return f.close, nil
}

func (f *singleFixture) close() {
	f.once.Do(func() {
		f.tp.CloseIdleConnections()
		if f.node != nil {
			f.node.close()
		}
		f.tp.CloseIdleConnections()
		f.pub.close()
		f.srv.Close()
	})
}

func (w *singleNode) rep(ctx context.Context, tr *tracer) (*repResult, error) {
	r := &repResult{layers: map[string]float64{}}
	var enc *callCounter
	if tr != nil {
		enc = &callCounter{}
	}
	p := beginPhase()
	f, err := startSingle(ctx, w.d.seed, tr, enc)
	r.setup = p.end(&r.timed)
	if err != nil {
		return r, fmt.Errorf("setup: %w", err)
	}
	err = w.phases(ctx, f, tr, enc, r)
	r.addRefusals(&f.refused)
	if err == nil {
		r.fixtureHeap = liveHeap()
	}
	f.close()
	if err == nil && tr != nil {
		r.spans = tr.snapshot()
		addSpanLayers(r)
		latencyLayers(r)
		r.layers["serve.apply_us"] = r.layers["httpapi.train.busy_us"] - r.layers["embed.encode_us"]
	}
	return r, err
}

// phases runs the ingest and the closed loop on a running fixture and
// checks the answers after each.
func (w *singleNode) phases(ctx context.Context, f *singleFixture, tr *tracer, enc *callCounter, r *repResult) error {
	rows := trainRows(w.d)
	r.attempted += len(rows)
	ictx, id, start := tr.beginOp(ctx)
	p := beginPhase()
	st, err := f.cli.Ingest(ictx)
	if err == nil {
		for i := range rows {
			if err = st.Send(rows[i]); err != nil {
				break
			}
		}
	}
	var ack client.IngestAck
	if err == nil {
		ack, err = st.Close()
	}
	r.ingest = p.end(&r.timed)
	tr.endOp(id, "op ingest", start)
	r.ingestRows = ack.TotalRows
	r.failed += len(rows) - ack.TotalRows
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	resp, err := f.cli.Predict(ctx, w.d.queries)
	if err != nil {
		return fmt.Errorf("predict after ingest: %w", err)
	}
	if err := w.afterIngest.compare("after ingest", resp.Classes, resp.Distances); err != nil {
		return err
	}

	p = beginPhase()
	lr := w.loop(ctx, f, tr)
	r.work = p.end(&r.timed)
	r.workOps = singleLoopOps - lr.failed
	r.attempted += singleLoopOps
	r.failed += lr.failed
	r.predict, r.train = lr.predict, lr.train
	if lr.failed > 0 {
		fmt.Fprintf(os.Stderr, "closed loop: %d of %d operations failed, the first with: %v\n", lr.failed, singleLoopOps, lr.firstErr)
	}
	stamps := f.pub.stamps()
	for _, w := range lr.writes {
		at, ok := stamps[w.version]
		if !ok {
			return fmt.Errorf("train acknowledged at version %d, which was never published", w.version)
		}
		r.visible = append(r.visible, at.Sub(w.start))
	}
	resp, err = f.cli.Predict(ctx, w.d.queries)
	if err != nil {
		return fmt.Errorf("predict after loop: %w", err)
	}
	if err := w.afterLoop.compare("after the closed loop", resp.Classes, resp.Distances); err != nil {
		return err
	}

	if tr != nil {
		directLayers(r, w.d, []*serve.Snapshot{f.srv.Snapshot()})
		r.layers["embed.encode_us"] = usOf(time.Duration(enc.nanos.Load()), enc.calls.Load())
		r.layers["embed.encode_calls"] = float64(enc.calls.Load())
		r.layers["serve.versions"] = float64(f.srv.Snapshot().Version())
		r.layers["cluster.rows_per_shard_max"] = float64(ack.TotalRows)
		r.layers["cluster.rows_per_shard_min"] = float64(ack.TotalRows)
	}
	return nil
}

// write is one acknowledged train: when it was sent and the version the
// server acknowledged it at.
type write struct {
	start   time.Time
	version uint64
}

type loopResult struct {
	predict  []time.Duration
	train    []time.Duration
	writes   []write
	failed   int
	firstErr error
}

// loop runs the closed loop on two connections: each worker takes the next
// sequence number and sends a unary predict or a single-sample train as
// isRead picks, until singleLoopOps operations have been sent. A failed
// operation is counted and the loop goes on until loopDeadline; a lost
// train then fails the check after the loop.
func (w *singleNode) loop(ctx context.Context, f *singleFixture, tr *tracer) loopResult {
	const workers = 2
	ctx, cancel := context.WithTimeout(ctx, loopDeadline)
	defer cancel()
	var seq atomic.Uint64
	parts := make([]loopResult, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(lr *loopResult) {
			defer wg.Done()
			for {
				i := seq.Add(1)
				if i > singleLoopOps {
					return
				}
				octx, id, ts := tr.beginOp(ctx)
				start := time.Now()
				var err error
				if isRead(i) {
					_, _, err = f.cli.PredictOne(octx, w.d.queries[int(i)%len(w.d.queries)])
					if err == nil {
						lr.predict = append(lr.predict, time.Since(start))
					}
					tr.endOp(id, "op predict", ts)
				} else {
					s := w.d.train[int(i)%len(w.d.train)]
					var resp *client.TrainResponse
					resp, err = f.cli.Train(octx, client.TrainRequest{Samples: []client.Sample{{Label: s.Label, Features: s.Features}}})
					if err == nil {
						lr.train = append(lr.train, time.Since(start))
						lr.writes = append(lr.writes, write{start, resp.Version})
					}
					tr.endOp(id, "op train", ts)
				}
				if err != nil {
					lr.failed++
					if lr.firstErr == nil {
						lr.firstErr = err
					}
				}
			}
		}(&parts[k])
	}
	wg.Wait()
	var out loopResult
	for _, p := range parts {
		out.predict = append(out.predict, p.predict...)
		out.train = append(out.train, p.train...)
		out.writes = append(out.writes, p.writes...)
		out.failed += p.failed
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	return out
}
