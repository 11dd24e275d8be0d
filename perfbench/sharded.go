package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"hdcirc/client"
	"hdcirc/internal/cluster"
	"hdcirc/internal/httpapi"
	"hdcirc/internal/repl"
	"hdcirc/internal/serve"
)

const (
	shardGroups = 2
	// manifestRingSeed pins the hashring, and with it which classes each
	// shard owns, independently of the input seed.
	manifestRingSeed = 42
	// The closed loop's fixed schedule: one writer beside one reader. The
	// counts are sized so that both finish at about the same time.
	shardedWrites = 450
	shardedReads  = 950
	// visibleTimeout bounds the writer's wait for the owning follower; a
	// train not visible by then counts as failed.
	visibleTimeout = 10 * time.Second
)

// shardedReplicated is two shard groups bound by one cluster manifest, each
// a durable primary plus one in-memory follower on the replication stream,
// driven through the cluster client with NearestReplica reads.
type shardedReplicated struct {
	d           *servedData
	afterIngest predictions
	afterLoop   predictions
}

func newShardedReplicated(seed uint64) (workload, error) {
	d := newServedData(seed, 1)
	rows := make([]int, len(d.train))
	for i := range rows {
		rows[i] = i
	}
	w := &shardedReplicated{d: d}
	var err error
	if w.afterIngest, err = reference(d, rows); err != nil {
		return nil, err
	}
	for j := 0; j < shardedWrites; j++ {
		rows = append(rows, j%len(d.train))
	}
	if w.afterLoop, err = reference(d, rows); err != nil {
		return nil, err
	}
	return w, nil
}

// group is one shard group: a durable primary and its follower.
type group struct {
	primary, follower         *serve.Server
	primaryNode, followerNode *node
	primaryPub, followerPub   *publishLog
	follow                    *repl.Follower
	followTransport           *http.Transport
	fs                        *fsCounters
}

type shardedFixture struct {
	groups  []*group
	man     *cluster.Manifest
	tp      *http.Transport
	cc      *client.ClusterClient
	refused refusals
	once    sync.Once
}

// counters are the traced repetition's encoder counters, split by role:
// during the closed loop primaries encode only trains and followers only
// predicts.
type counters struct {
	primaryEnc, followerEnc callCounter
}

func startSharded(ctx context.Context, seed uint64, tr *tracer, cs *counters) (*shardedFixture, error) {
	f := &shardedFixture{tp: newTransport(), man: &cluster.Manifest{Version: 1, RingSeed: manifestRingSeed}}
	var primaryEnc, followerEnc *callCounter
	if cs != nil {
		primaryEnc, followerEnc = &cs.primaryEnc, &cs.followerEnc
	}
	// Listen first: the manifest names every endpoint before any node
	// routes by it.
	for i := 0; i < shardGroups; i++ {
		g := &group{}
		f.groups = append(f.groups, g)
		var err error
		if g.primaryNode, err = listen(); err == nil {
			g.followerNode, err = listen()
		}
		if err != nil {
			f.close()
			return nil, err
		}
		f.man.Shards = append(f.man.Shards, cluster.ShardEndpoints{Primary: g.primaryNode.url, Replicas: []string{g.followerNode.url}})
	}
	for i, g := range f.groups {
		if err := g.start(ctx, f.man, i, seed, tr, &f.refused, primaryEnc, followerEnc); err != nil {
			f.close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	hc := &http.Client{Transport: tr.transport(f.tp, &f.refused)}
	var err error
	f.cc, err = client.NewClusterClient(f.man, client.WithReadPreference(client.NearestReplica), client.WithHTTPClient(hc))
	for _, g := range f.groups {
		for _, n := range []*node{g.primaryNode, g.followerNode} {
			if err == nil {
				err = answers(ctx, hc, n.url)
			}
		}
		if err == nil {
			err = g.caughtUp(ctx)
		}
	}
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (g *group) start(ctx context.Context, man *cluster.Manifest, shard int, seed uint64, tr *tracer, refused *refusals, primaryEnc, followerEnc *callCounter) error {
	owner, err := cluster.NewNode(man, shard)
	if err != nil {
		return err
	}
	cfg := serveConfig(seed)
	if tr != nil {
		g.fs = &fsCounters{}
	}
	cfg.WAL = &serve.WALConfig{Dir: "/wal", FS: filesystem(newMemFS(), g.fs)}
	if g.primary, err = serve.Open(cfg); err != nil {
		return err
	}
	g.primaryPub = watchPublishes(g.primary)
	src, err := repl.NewSource(repl.SourceConfig{Server: g.primary})
	if err != nil {
		return err
	}
	papi, err := httpapi.New(httpapi.Config{
		Server: g.primary, Encoder: countEncoder(newRecordEncoder(seed), primaryEnc), Cluster: owner, Replication: src,
	})
	if err != nil {
		return err
	}
	g.primaryNode.serve(tr.handler("primary-"+strconv.Itoa(shard), papi, refused))

	if g.follower, err = serve.NewServer(serveConfig(seed)); err != nil {
		return err
	}
	g.followerPub = watchPublishes(g.follower)
	fapi, err := httpapi.New(httpapi.Config{
		Server: g.follower, Encoder: countEncoder(newRecordEncoder(seed), followerEnc), Cluster: owner,
	})
	if err != nil {
		return err
	}
	g.followerNode.serve(tr.handler("follower-"+strconv.Itoa(shard), fapi, refused))
	g.followTransport = newTransport()
	g.follow, err = repl.StartFollower(ctx, repl.FollowerConfig{
		Server: g.follower, PrimaryURL: g.primaryNode.url, Client: &http.Client{Transport: tr.transport(g.followTransport, refused)},
	})
	return err
}

// caughtUp waits until the primary has the follower's session open and the
// follower publishes the primary's version. The session, not the
// follower's Connected flag, marks the stream live: the flag waits for the
// first frame, which on an idle primary is the heartbeat seconds later.
func (g *group) caughtUp(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, visibleTimeout)
	defer cancel()
	for {
		if st := g.primary.Stats().Replication; st != nil && st.ConnectedFollowers > 0 {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("follower never connected: %v", g.follow.LastError())
		case <-time.After(200 * time.Microsecond):
		}
	}
	_, err := g.followerPub.waitFor(ctx, g.primary.Snapshot().Version())
	return err
}

func (w *shardedReplicated) setUp(ctx context.Context) (func(), error) {
	f, err := startSharded(ctx, w.d.seed, nil, nil)
	if err != nil {
		return nil, err
	}
	return f.close, nil
}

func (f *shardedFixture) close() {
	f.once.Do(func() {
		f.tp.CloseIdleConnections()
		for _, g := range f.groups {
			if g.follow != nil {
				g.follow.Close()
			}
		}
		for _, g := range f.groups {
			for _, n := range []*node{g.followerNode, g.primaryNode} {
				if n != nil {
					n.close()
				}
			}
			if g.followTransport != nil {
				g.followTransport.CloseIdleConnections()
			}
			for _, p := range []*publishLog{g.followerPub, g.primaryPub} {
				if p != nil {
					p.close()
				}
			}
			for _, s := range []*serve.Server{g.follower, g.primary} {
				if s != nil {
					s.Close()
				}
			}
		}
		f.tp.CloseIdleConnections()
	})
}

func (w *shardedReplicated) rep(ctx context.Context, tr *tracer) (*repResult, error) {
	r := &repResult{layers: map[string]float64{}}
	var cs *counters
	if tr != nil {
		cs = &counters{}
	}
	p := beginPhase()
	f, err := startSharded(ctx, w.d.seed, tr, cs)
	r.setup = p.end(&r.timed)
	if err != nil {
		return r, fmt.Errorf("setup: %w", err)
	}
	nonApplyUS, err := w.phases(ctx, f, tr, cs, r)
	r.addRefusals(&f.refused)
	if err == nil {
		r.fixtureHeap = liveHeap()
	}
	f.close()
	if err == nil && tr != nil {
		r.spans = tr.snapshot()
		addSpanLayers(r)
		latencyLayers(r)
		var replBytes int64
		for _, s := range r.spans {
			if s.Name == "client /v1/replicate:stream" {
				replBytes += s.RespBytes
			}
		}
		r.layers["repl.bytes_per_record"] = perOp(replBytes, int(r.layers["serve.versions"]))
		r.layers["serve.apply_us"] = r.layers["httpapi.train.busy_us"] - nonApplyUS
	}
	return r, err
}

// phases runs the ingest and the closed loop on a running fixture and
// checks the answers and the followers after each. In a traced repetition
// it also returns the primaries' encode and log time per train.
func (w *shardedReplicated) phases(ctx context.Context, f *shardedFixture, tr *tracer, cs *counters, r *repResult) (float64, error) {
	rows := trainRows(w.d)
	r.attempted += len(rows)
	ictx, id, start := tr.beginOp(ctx)
	p := beginPhase()
	sum, err := w.ingest(ictx, f, rows)
	r.ingest = p.end(&r.timed)
	tr.endOp(id, "op ingest", start)
	r.ingestRows = sum.Rows
	r.failed += len(rows) - sum.Rows
	if err != nil {
		return 0, fmt.Errorf("ingest: %w", err)
	}
	resp, err := f.cc.Predict(ctx, w.d.queries)
	if err != nil {
		return 0, fmt.Errorf("predict after ingest: %w", err)
	}
	if err := w.afterIngest.compare("merged predictions after ingest", resp.Classes, resp.Distances); err != nil {
		return 0, err
	}

	var before int64
	if cs != nil {
		before = nonApplyNanos(f, cs)
	}
	p = beginPhase()
	lr := w.loop(ctx, f, tr)
	r.work = p.end(&r.timed)
	r.workOps = shardedWrites + shardedReads - lr.failed
	r.attempted += shardedWrites + shardedReads
	r.failed += lr.failed
	r.predict, r.train, r.visible = lr.predict, lr.train, lr.visible
	if lr.failed > 0 {
		fmt.Fprintf(os.Stderr, "closed loop: %d of %d operations failed, the first with: %v\n", lr.failed, shardedWrites+shardedReads, lr.firstErr)
	}
	for i, g := range f.groups {
		if err := g.caughtUp(ctx); err != nil {
			return 0, fmt.Errorf("shard %d: %w", i, err)
		}
		if pv, fv := g.primary.Snapshot().Version(), g.follower.Snapshot().Version(); pv != fv {
			return 0, fmt.Errorf("shard %d: follower at version %d, primary at %d", i, fv, pv)
		}
	}
	resp, err = f.cc.Predict(ctx, w.d.queries)
	if err != nil {
		return 0, fmt.Errorf("predict after loop: %w", err)
	}
	if err := w.afterLoop.compare("merged predictions after the closed loop", resp.Classes, resp.Distances); err != nil {
		return 0, err
	}
	if tr == nil {
		return 0, nil
	}
	return w.tracedLayers(r, f, cs, sum, before), nil
}

// ingest streams the training split through the cluster client, which
// splits it per owning shard, and waits until every follower publishes
// its primary's final version.
func (w *shardedReplicated) ingest(ctx context.Context, f *shardedFixture, rows []client.IngestRow) (client.ClusterIngestSummary, error) {
	st, err := f.cc.Ingest(ctx)
	if err != nil {
		return client.ClusterIngestSummary{}, err
	}
	for i := range rows {
		if err := st.Send(rows[i]); err != nil {
			return client.ClusterIngestSummary{}, err
		}
	}
	sum, err := st.Close()
	if err != nil {
		return sum, err
	}
	applied := 0
	for _, a := range sum.Shards {
		applied += a.TotalRows
	}
	if applied != len(rows) || sum.Rows != len(rows) {
		return sum, fmt.Errorf("%d rows sent, %d accepted, %d applied", len(rows), sum.Rows, applied)
	}
	ctx, cancel := context.WithTimeout(ctx, visibleTimeout)
	defer cancel()
	for i, g := range f.groups {
		if _, err := g.followerPub.waitFor(ctx, g.primary.Snapshot().Version()); err != nil {
			return sum, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return sum, nil
}

type shardedLoop struct {
	predict, train, visible []time.Duration
	failed                  int
	firstErr                error
}

// loop runs one writer beside one reader. The writer sends single-sample
// trains and waits until the owning follower publishes each one; the
// reader sends scatter-gather unary predicts, which the followers serve.
// A failed operation, or a train not visible within visibleTimeout, is
// counted and the loop goes on until loopDeadline; a lost train then fails
// the checks after the loop.
func (w *shardedReplicated) loop(ctx context.Context, f *shardedFixture, tr *tracer) shardedLoop {
	ctx, cancel := context.WithTimeout(ctx, loopDeadline)
	defer cancel()
	var writer, reader shardedLoop
	var mu sync.Mutex
	var firstErr error
	fail := func(n *int, err error) {
		*n++
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for j := 0; j < shardedWrites; j++ {
			s := w.d.train[j%len(w.d.train)]
			octx, id, ts := tr.beginOp(ctx)
			start := time.Now()
			acks, err := f.cc.Train(octx, client.TrainRequest{Samples: []client.Sample{{Label: s.Label, Features: s.Features}}})
			if err == nil {
				writer.train = append(writer.train, time.Since(start))
				owner := f.cc.ShardForClass(s.Label)
				ack, ok := acks[owner]
				if !ok {
					err = fmt.Errorf("train of class %d: no acknowledgement from owning shard %d", s.Label, owner)
				} else {
					wctx, cancel := context.WithTimeout(ctx, visibleTimeout)
					var at time.Time
					at, err = f.groups[owner].followerPub.waitFor(wctx, ack.Version)
					cancel()
					if err == nil {
						writer.visible = append(writer.visible, at.Sub(start))
					}
				}
			}
			tr.endOp(id, "op train", ts)
			if err != nil {
				fail(&writer.failed, err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for j := 0; j < shardedReads; j++ {
			octx, id, ts := tr.beginOp(ctx)
			start := time.Now()
			_, _, err := f.cc.PredictOne(octx, w.d.queries[j%len(w.d.queries)])
			if err == nil {
				reader.predict = append(reader.predict, time.Since(start))
			} else {
				fail(&reader.failed, err)
			}
			tr.endOp(id, "op predict", ts)
		}
	}()
	wg.Wait()
	return shardedLoop{predict: reader.predict, train: writer.train, visible: writer.visible, failed: writer.failed + reader.failed, firstErr: firstErr}
}

// nonApplyNanos sums the time the primaries spent encoding and in log
// writes and syncs. Read before and after the closed loop, whose only
// primary work is trains, it gives the part of the train handler that is
// not apply.
func nonApplyNanos(f *shardedFixture, cs *counters) int64 {
	n := cs.primaryEnc.nanos.Load()
	for _, g := range f.groups {
		n += g.fs.writes.nanos.Load() + g.fs.syncs.nanos.Load()
	}
	return n
}

// tracedLayers reads the counters, publish logs and direct calls of a
// traced repetition. It returns the encode and log time per train spent on
// the primaries during the closed loop: the part of the train handler that
// is not apply.
func (w *shardedReplicated) tracedLayers(r *repResult, f *shardedFixture, cs *counters, sum client.ClusterIngestSummary, before int64) float64 {
	var snaps []*serve.Snapshot
	var versions, writeCalls, writeBytes, syncCalls, syncNanos, checkpoints int64
	var ship []float64
	var maxLag uint64
	for _, g := range f.groups {
		snaps = append(snaps, g.follower.Snapshot())
		versions += int64(g.primary.Snapshot().Version())
		writeCalls += g.fs.writes.calls.Load()
		writeBytes += g.fs.writes.bytes.Load()
		syncCalls += g.fs.syncs.calls.Load()
		syncNanos += g.fs.syncs.nanos.Load()
		checkpoints += g.fs.checkpoints.Load()
		s, lag := shipStats(g.primaryPub.stamps(), g.followerPub.stamps())
		ship = append(ship, s...)
		maxLag = max(maxLag, lag)
	}
	directLayers(r, w.d, snaps)
	encCalls := cs.primaryEnc.calls.Load() + cs.followerEnc.calls.Load()
	encNanos := cs.primaryEnc.nanos.Load() + cs.followerEnc.nanos.Load()
	r.layers["embed.encode_us"] = usOf(time.Duration(encNanos), encCalls)
	r.layers["embed.encode_calls"] = float64(encCalls)
	r.layers["serve.versions"] = float64(versions)
	r.layers["wal.write_bytes_per_row"] = perOp(writeBytes, r.ingestRows+shardedWrites)
	r.layers["wal.write_calls"] = float64(writeCalls)
	r.layers["wal.sync_calls"] = float64(syncCalls)
	r.layers["wal.sync_us"] = usOf(time.Duration(syncNanos), syncCalls)
	r.layers["wal.checkpoints"] = float64(checkpoints)
	r.layers["repl.ship_us.p50"] = quantile(ship, 0.5)
	r.layers["repl.ship_us.p90"] = quantile(ship, 0.9)
	r.layers["repl.max_lag"] = float64(maxLag)
	var perShard []int
	for _, a := range sum.Shards {
		perShard = append(perShard, a.TotalRows)
	}
	sort.Ints(perShard)
	if len(perShard) > 0 {
		r.layers["cluster.rows_per_shard_min"] = float64(perShard[0])
		r.layers["cluster.rows_per_shard_max"] = float64(perShard[len(perShard)-1])
	}
	if len(perShard) < shardGroups {
		r.layers["cluster.rows_per_shard_min"] = 0
	}
	return float64(nonApplyNanos(f, cs)-before) / float64(shardedWrites) / 1e3
}
