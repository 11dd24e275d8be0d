package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"hdcirc/client"
	"hdcirc/internal/bitvec"
	"hdcirc/internal/core"
	"hdcirc/internal/dataset"
	"hdcirc/internal/embed"
	"hdcirc/internal/httpapi"
	"hdcirc/internal/model"
	"hdcirc/internal/rng"
	"hdcirc/internal/serve"
)

// The served workloads serve the paper's Table 1 model: 18 angular
// features, 15 gesture classes, a circular basis with r = 0.1 at
// d = 10000, and the record encoding ⊕_i K_i ⊗ V_i.
const (
	servedDim      = 10000
	servedClasses  = 15
	servedFeatures = 18
	servedLevels   = 24 // experiments.DefaultClassifyConfig().ValueLevels
	servedR        = 0.1
	servedTask     = "Suturing"
)

// recordEncoder is the paper's record encoding as an httpapi.Encoder.
type recordEncoder struct {
	rec    *embed.RecordEncoder
	fields []embed.FieldEncoder
}

func (e *recordEncoder) Fields() int { return servedFeatures }

func (e *recordEncoder) Encode(features []float64) *bitvec.Vector {
	return e.rec.EncodeRecord(features, e.fields)
}

// newRecordEncoder builds the encoder a node serves with; every node of a
// topology builds its own from the shared seed, as separate processes would.
func newRecordEncoder(seed uint64) *recordEncoder {
	set := core.Config{Kind: core.KindCircular, M: servedLevels, D: servedDim, R: servedR}.Build(rng.Sub(seed, "perfbench/basis"))
	circ := embed.NewCircularEncoder(set, 2*math.Pi)
	fields := make([]embed.FieldEncoder, servedFeatures)
	for i := range fields {
		fields[i] = circ
	}
	return &recordEncoder{rec: embed.NewRecordEncoder(servedDim, servedFeatures, seed), fields: fields}
}

func serveConfig(seed uint64) serve.Config {
	return serve.Config{Dim: servedDim, Classes: servedClasses, Seed: seed}
}

// servedData is the generated input of a served workload: one surgical
// task's train and test splits, and their encodings for the references
// and the direct per-layer calls.
type servedData struct {
	seed    uint64
	gesture dataset.GestureConfig
	train   []dataset.GestureSample
	test    []dataset.GestureSample
	queries [][]float64
	trainHV []*bitvec.Vector
	testHV  []*bitvec.Vector
}

// newServedData generates the task with trainScale times the paper's
// training split.
func newServedData(seed uint64, trainScale int) *servedData {
	cfg := dataset.DefaultGestureConfig(servedTask)
	cfg.TrainPerGesture *= trainScale
	ds := dataset.GenGestures(cfg, seed)
	d := &servedData{seed: seed, gesture: cfg, train: ds.Train, test: ds.Test}
	enc := newRecordEncoder(seed)
	for _, s := range d.train {
		d.trainHV = append(d.trainHV, enc.Encode(s.Features))
	}
	for _, s := range d.test {
		d.queries = append(d.queries, s.Features)
		d.testHV = append(d.testHV, enc.Encode(s.Features))
	}
	return d
}

// predictions is a model's answer over the test split.
type predictions struct {
	classes   []int
	distances []float64
}

// reference trains an in-process server on the given training rows through
// ApplyBatch and predicts the test split: what the served topology must
// answer, bit for bit, after the same rows.
func reference(d *servedData, rows []int) (predictions, error) {
	srv, err := serve.NewServer(serveConfig(d.seed))
	if err != nil {
		return predictions{}, err
	}
	defer srv.Close()
	var b serve.Batch
	for _, i := range rows {
		b.Train = append(b.Train, serve.Sample{Class: d.train[i].Label, HV: d.trainHV[i]})
	}
	if _, err := srv.ApplyBatch(b); err != nil {
		return predictions{}, err
	}
	classes, distances := srv.PredictBatch(d.testHV)
	return predictions{classes, distances}, nil
}

// compare reports the first test query on which got differs from want.
func (want predictions) compare(what string, classes []int, distances []float64) error {
	if len(classes) != len(want.classes) || len(distances) != len(want.distances) {
		return fmt.Errorf("%s: %d/%d answers, want %d", what, len(classes), len(distances), len(want.classes))
	}
	for i := range classes {
		if classes[i] != want.classes[i] || distances[i] != want.distances[i] {
			return fmt.Errorf("%s: query %d answered (%d, %v), the in-process reference (%d, %v)",
				what, i, classes[i], distances[i], want.classes[i], want.distances[i])
		}
	}
	return nil
}

// loopDeadline bounds a closed loop whose operations fail: the client's
// own retries and backoff could otherwise stretch it past the time a run
// may take. Operations not done by then fail at once and are counted. A
// loop takes about a second when nothing fails; a run makes at least
// three untraced repetitions and, traced, three more.
const loopDeadline = 15 * time.Second

// isRead is hdcload's mixedOp schedule: a multiplicative hash of the
// operation's sequence number picks 9 reads to 1 write without bursts.
func isRead(i uint64) bool { return (i*2654435761)%1000 < 900 }

// publishLog stamps the time each version of a server is published, as
// seen through SubscribeApplied. Notifications coalesce, so every version
// between two observations gets the later stamp.
type publishLog struct {
	srv    *serve.Server
	cancel func()
	stop   chan struct{}
	done   chan struct{}

	mu   sync.Mutex
	at   map[uint64]time.Time
	last uint64
	wake chan struct{}
}

func watchPublishes(srv *serve.Server) *publishLog {
	ch, cancel := srv.SubscribeApplied()
	p := &publishLog{
		srv: srv, cancel: cancel, stop: make(chan struct{}), done: make(chan struct{}),
		at: map[uint64]time.Time{}, last: srv.Snapshot().Version(), wake: make(chan struct{}),
	}
	go func() {
		defer close(p.done)
		for {
			select {
			case <-ch:
				p.observe()
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

func (p *publishLog) observe() {
	v := p.srv.Snapshot().Version()
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if v <= p.last {
		return
	}
	for x := p.last + 1; x <= v; x++ {
		p.at[x] = now
	}
	p.last = v
	close(p.wake)
	p.wake = make(chan struct{})
}

// waitFor blocks until version v is published and returns its stamp.
func (p *publishLog) waitFor(ctx context.Context, v uint64) (time.Time, error) {
	for {
		p.mu.Lock()
		if p.last >= v {
			t := p.at[v]
			p.mu.Unlock()
			return t, nil
		}
		wake := p.wake
		p.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return time.Time{}, fmt.Errorf("waiting for version %d (at %d): %w", v, p.version(), ctx.Err())
		}
	}
}

func (p *publishLog) version() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
}

// stamps returns a copy of the version → publish time map.
func (p *publishLog) stamps() map[uint64]time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[uint64]time.Time, len(p.at))
	for k, v := range p.at {
		out[k] = v
	}
	return out
}

func (p *publishLog) close() {
	close(p.stop)
	<-p.done
	p.cancel()
}

// newTransport is the transport client.New builds by default; the
// benchmark builds it itself so that it can wrap it and close its idle
// connections at teardown.
func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 32
	return t
}

// node is one HTTP server of a topology on a loopback listener. close
// returns only after every handler call has returned: http.Server.Close
// does not wait for them, and a handler still running after teardown (a
// primary's replication stream in the middle of reading its log, say)
// holds the fixture's memory past the leak check.
type node struct {
	url  string
	hs   *http.Server
	ln   net.Listener
	done chan struct{}

	mu       sync.Mutex
	closed   bool
	handlers sync.WaitGroup
}

func listen() (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &node{url: "http://" + ln.Addr().String(), ln: ln}, nil
}

func (n *node) serve(h http.Handler) {
	n.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			http.Error(w, "node closed", http.StatusServiceUnavailable)
			return
		}
		n.handlers.Add(1)
		n.mu.Unlock()
		defer n.handlers.Done()
		h.ServeHTTP(w, r)
	})}
	n.done = make(chan struct{})
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(n.ln) // returns http.ErrServerClosed at teardown
	}()
}

func (n *node) close() {
	if n.hs == nil {
		n.ln.Close()
		return
	}
	n.hs.Close()
	<-n.done
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.handlers.Wait()
}

// answers checks that the node serves its health endpoint.
func answers(ctx context.Context, hc *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: health answered %s", url, resp.Status)
	}
	return nil
}

// trainRows is the training split as ingest rows.
func trainRows(d *servedData) []client.IngestRow {
	rows := make([]client.IngestRow, len(d.train))
	for i, s := range d.train {
		label := s.Label
		rows[i] = client.IngestRow{Label: &label, Features: s.Features}
	}
	return rows
}

// directLayers times the calls into the layers below the wire on this
// workload's sizes, outside any request: basis construction, the
// classifier on pre-encoded samples and snapshot predict.
func directLayers(r *repResult, d *servedData, snaps []*serve.Snapshot) {
	for _, kind := range []core.Kind{core.KindRandom, core.KindLevel, core.KindCircular} {
		cfg := core.Config{Kind: kind, M: servedLevels, D: servedDim}
		if kind == core.KindCircular {
			cfg.R = servedR
		}
		r.layers["core.basis_ms."+kind.String()] = timeBasis(d.seed, cfg)
	}
	start := time.Now()
	dataset.GenGestures(d.gesture, d.seed)
	r.layers["dataset.gen_ms"] = float64(time.Since(start)) / 1e6
	r.layers["model.add_us"], r.layers["model.predict_us"] = timeClassifier(d.seed, d.train, d.trainHV, d.testHV)
	var calls int64
	start = time.Now()
	for _, s := range snaps {
		for _, q := range d.testHV {
			s.Predict(q)
			calls++
		}
	}
	r.layers["serve.predict_us"] = usOf(time.Since(start), calls)
}

// timeBasis is the median of five builds of one basis set, in ms.
func timeBasis(seed uint64, cfg core.Config) float64 {
	var xs []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		cfg.Build(rng.Sub(seed, "perfbench/basis-timing"))
		xs = append(xs, float64(time.Since(start))/1e6)
	}
	return quantile(xs, 0.5)
}

// timeClassifier trains a fresh classifier on pre-encoded samples and
// predicts pre-encoded queries, returning µs per Add and per Predict.
func timeClassifier(seed uint64, train []dataset.GestureSample, trainHV, testHV []*bitvec.Vector) (addUS, predictUS float64) {
	clf := model.NewClassifier(servedClasses, servedDim, seed)
	start := time.Now()
	for i, s := range train {
		clf.Add(s.Label, trainHV[i])
	}
	addUS = usOf(time.Since(start), int64(len(train)))
	clf.Finalize()
	start = time.Now()
	for _, q := range testHV {
		clf.Predict(q)
	}
	return addUS, usOf(time.Since(start), int64(len(testHV)))
}

// countEncoder wraps an encoder with a call counter; a nil counter
// returns e unchanged.
func countEncoder(e httpapi.Encoder, c *callCounter) httpapi.Encoder {
	if c == nil {
		return e
	}
	return countingEncoder{Encoder: e, c: c}
}

// shipStats pairs each version's publish on a primary with its publish on
// the follower: the ship latencies (µs) and the largest lag in versions
// seen at any primary publish.
func shipStats(primary, follower map[uint64]time.Time) (ship []float64, maxLag uint64) {
	type ev struct {
		t       time.Time
		v       uint64
		primary bool
	}
	var evs []ev
	for v, tp := range primary {
		if tf, ok := follower[v]; ok {
			ship = append(ship, float64(tf.Sub(tp))/1e3)
		}
		evs = append(evs, ev{tp, v, true})
	}
	for v, tf := range follower {
		evs = append(evs, ev{tf, v, false})
	}
	sortEvents := func(i, j int) bool {
		if !evs[i].t.Equal(evs[j].t) {
			return evs[i].t.Before(evs[j].t)
		}
		return !evs[i].primary && evs[j].primary // a follower publish at the same instant counts first
	}
	sort.Slice(evs, sortEvents)
	var fv uint64
	for _, e := range evs {
		if !e.primary {
			fv = max(fv, e.v)
			continue
		}
		if e.v > fv {
			maxLag = max(maxLag, e.v-fv)
		}
	}
	return ship, maxLag
}
