// Package serve is the concurrency-safe online inference layer: it wraps
// the mutable learning models (a sharded Classifier and ItemMemory) behind
// immutable, versioned snapshots swapped through an atomic pointer.
//
// The contract splits the world into two planes:
//
//   - Reads (Predict, Scores, Lookup) run against the current Snapshot: a
//     frozen, finalized view that is never mutated after publication.
//     Grabbing it is one atomic load, so reads are lock-free, race-free at
//     any fan-in, and internally consistent — a request that loads
//     snapshot v sees ALL of v and nothing of v+1.
//
//   - Writes (ApplyBatch: classifier training samples and item-memory
//     membership churn, the two write kinds API v1 can send) go through a
//     single-writer apply path. The writer validates the whole batch first
//     (a rejected batch mutates nothing), applies it to the master models,
//     rebuilds only the shard views the batch dirtied, and publishes a new
//     snapshot with the next version number.
//
// The paper's regression model and the SDM cleanup memory are in-process
// models (internal/model, internal/sdm); the server does not host them.
//
// Snapshots are deterministic: shard classifiers finalize with fixed
// per-class tie vectors derived from (seed, global class id), so the
// published prototypes are a pure function of the training multiset —
// independent of worker count, shard count, apply interleaving, and how
// many times finalization ran. That is what makes the serving layer
// testable: a concurrent run must be bit-identical to a sequential replay
// at every published version.
//
// Sharding follows the HD-hashing lineage the repo reproduces (Heddes et
// al., DAC 2022): a hashring.Shards ring routes class ids and item
// symbols to per-shard sub-models, so k classes or large item memories
// spread across shards, and the per-shard work (apply, finalize, scans)
// fans out over the internal/batch pool.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hdcirc/internal/batch"
	"hdcirc/internal/bitvec"
	"hdcirc/internal/embed"
	"hdcirc/internal/hashring"
	"hdcirc/internal/index"
	"hdcirc/internal/model"
	"hdcirc/internal/rng"
	"hdcirc/internal/wal"
)

// Config parameterizes a Server.
type Config struct {
	// Dim is the hypervector dimension (required, > 0).
	Dim int
	// Classes is the number of classifier classes (required, > 0).
	Classes int
	// Shards is the number of sub-model shards classes and item symbols
	// are routed across; <= 0 selects 1.
	Shards int
	// Workers sizes the batch pool used for fan-out; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// Seed derives every stream the server uses (tie vectors, item
	// vectors, ring positions). Two servers with equal configs are
	// bit-identical given equal write sequences.
	Seed uint64
	// RingPositions sizes the consistent-hashing ring used for routing;
	// <= 0 selects max(8, 2*Shards). Must be >= Shards.
	RingPositions int
	// Index configures how each shard's item vectors and class prototypes
	// are searched (see index.Config). Nil selects index.DefaultConfig():
	// sketch-indexed once a shard's collection reaches the default
	// threshold, exact below it. Set &index.Config{Disabled: true} for
	// exact-only search at any size.
	Index *index.Config
	// WAL enables durability when the server is built through Open: every
	// applied batch is written ahead to a segmented log in WAL.Dir before
	// it mutates anything, checkpoints bound recovery cost, and Open
	// recovers existing state from the directory. Nil keeps the server
	// purely in-memory (and NewServer always does). See WALConfig.
	WAL *WALConfig
}

// shardState is one shard's mutable master models, guarded by the server's
// writer mutex.
type shardState struct {
	classes []int             // global class ids in ascending order
	local   map[int]int       // global class id → local index
	cls     *model.Classifier // nil when the shard owns no classes
	items   *embed.ItemMemory
}

// Server hosts the models behind versioned snapshots. All read methods are
// safe for unbounded concurrent use; ApplyBatch and Restore are safe for
// concurrent callers too but serialize internally (single-writer).
type Server struct {
	cfg     Config
	ixCfg   index.Config // resolved search configuration of every shard collection
	pool    *batch.Pool
	ring    *hashring.Shards
	shardOf []int // global class id → shard

	// wsem admits one writer at a time ahead of mu, so a writer stalled on
	// a slow disk (fsync under mu) queues later writers HERE, where their
	// context deadline still applies, instead of on the uncancellable mutex.
	wsem chan struct{}

	mu      sync.Mutex // the single-writer apply path
	shards  []*shardState
	samples uint64
	nitems  int
	version uint64
	closed  bool  // Close called; writes fail, reads keep serving
	walErr  error // sticky write-ahead failure; server is degraded until Recover

	// Replication role, under mu (see repl.go). Zero value is primary;
	// roleSet records whether a role was ever explicitly assigned, so Stats
	// only reports a role on servers that are part of a replication tier.
	role        Role
	roleSet     bool
	primaryURL  string
	replStatsFn func() ReplicationStats

	// Apply-notification subscribers (coalesced; see SubscribeApplied).
	subMu   sync.Mutex
	subs    map[int]chan struct{}
	nextSub int

	// Degraded-mode bookkeeping, under mu.
	degradedSince time.Time
	probing       bool // a recovery probe goroutine is live

	probeStop chan struct{}
	stopProbe sync.Once
	probeWG   sync.WaitGroup

	// Durability (nil/zero on purely in-memory servers; see wal.go).
	wal       *wal.Log
	walCfg    WALConfig
	sinceCkpt int           // batches since the last checkpoint, under mu
	ckptMu    sync.Mutex    // serializes Checkpoint
	lastCkpt  atomic.Uint64 // newest durable checkpoint version
	ckptBusy  atomic.Bool
	ckptWG    sync.WaitGroup
	errMu     sync.Mutex // guards ckptErr
	ckptErr   error      // background checkpoint failure, surfaced by Close

	snap  atomic.Pointer[Snapshot]
	reads atomic.Uint64
}

// ErrClosed is returned (possibly wrapped) by writes against a server
// whose Close has run. The published snapshot keeps serving reads.
var ErrClosed = errors.New("serve: server is closed")

// ErrWALFailed is returned (wrapped, with the original fault) by writes
// after a sticky write-ahead failure: the in-memory state is still
// consistent, but the server refuses to diverge from its log.
var ErrWALFailed = errors.New("serve: write-ahead log failed")

// ErrDegraded is returned (wrapped, alongside ErrWALFailed) by writes
// against a degraded server: reads keep serving the published snapshot,
// writes fail fast until Recover (or the auto-retry probe) clears the
// storage fault.
var ErrDegraded = errors.New("serve: server is degraded (read-only)")

// ErrUnrecoverable marks a recovery attempt that found the log missing
// acknowledged records: the on-disk prefix is shorter than what callers
// were promised, so clearing the fault would silently lose writes. The
// server stays degraded; an operator must restore the log (or accept the
// loss by reopening from the directory as a fresh process).
var ErrUnrecoverable = errors.New("serve: log lost acknowledged writes")

// State is the server's position in the healthy → degraded → closed
// lifecycle.
type State int

const (
	// StateHealthy accepts writes and reads.
	StateHealthy State = iota
	// StateDegraded serves reads from the published snapshot but fails
	// writes fast: the write-ahead log hit a sticky storage fault. A
	// successful Recover returns the server to StateHealthy.
	StateDegraded
	// StateClosed is terminal: Close has run. Published snapshots remain
	// readable through held references.
	StateClosed
)

func (st State) String() string {
	switch st {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("State(%d)", int(st))
	}
}

// NewServer validates the config, builds the ring and shard masters, and
// publishes snapshot version 0 (the empty model). Config problems are
// errors, not panics: server sizing comes from operator input.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("serve: dimension must be positive, got %d", cfg.Dim)
	}
	if cfg.Classes <= 0 {
		return nil, fmt.Errorf("serve: class count must be positive, got %d", cfg.Classes)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.RingPositions <= 0 {
		cfg.RingPositions = 2 * cfg.Shards
		if cfg.RingPositions < 8 {
			cfg.RingPositions = 8
		}
	}
	if cfg.RingPositions < cfg.Shards {
		return nil, fmt.Errorf("serve: %d ring positions cannot hold %d shards", cfg.RingPositions, cfg.Shards)
	}
	ring, err := hashring.NewShards(cfg.RingPositions, cfg.Dim, rng.Sub(cfg.Seed, "serve/ring").Uint64(), cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("serve: building routing ring: %w", err)
	}

	ixCfg := index.DefaultConfig()
	if cfg.Index != nil {
		ixCfg = *cfg.Index
	}
	s := &Server{
		cfg:       cfg,
		ixCfg:     ixCfg,
		pool:      batch.New(cfg.Workers),
		ring:      ring,
		shardOf:   make([]int, cfg.Classes),
		shards:    make([]*shardState, cfg.Shards),
		wsem:      make(chan struct{}, 1),
		probeStop: make(chan struct{}),
		subs:      make(map[int]chan struct{}),
	}
	for i := range s.shards {
		s.shards[i] = &shardState{
			local: make(map[int]int),
			items: embed.NewItemMemory(cfg.Dim, cfg.Seed),
		}
	}
	// Route classes to shards through the ring, in ascending class order so
	// each shard's class list stays sorted (the global tie-break in Predict
	// depends on that).
	for c := 0; c < cfg.Classes; c++ {
		sh := ring.ShardForClass(c)
		s.shardOf[c] = sh
		st := s.shards[sh]
		st.local[c] = len(st.classes)
		st.classes = append(st.classes, c)
	}
	// Shard classifiers finalize with fixed tie vectors derived from the
	// GLOBAL class id, so prototypes are identical no matter which shard a
	// class lands on — the determinism the snapshot contract promises.
	for _, st := range s.shards {
		if len(st.classes) == 0 {
			continue
		}
		st.cls = model.NewClassifier(len(st.classes), cfg.Dim, cfg.Seed)
		tvs := make([]*bitvec.Vector, len(st.classes))
		for i, c := range st.classes {
			tvs[i] = classTieVector(cfg.Seed, cfg.Dim, c)
		}
		st.cls.SetTieVectors(tvs)
		st.cls.SetIndexConfig(ixCfg)
	}
	s.snap.Store(s.buildSnapshotLocked(nil, nil))
	return s, nil
}

// classTieVector derives the fixed finalization tie vector for a global
// class id.
func classTieVector(seed uint64, d, class int) *bitvec.Vector {
	return bitvec.Random(d, rng.Sub(seed, fmt.Sprintf("serve/ties/class/%d", class)))
}

// Route reports which shard serves an arbitrary routing key, with the ring
// member name and ring slot — the HD-hashing lookup as a service. Safe for
// concurrent use (ring membership is fixed after construction).
func (s *Server) Route(key string) (shard int, member string, slot int) {
	return s.ring.Route(key)
}

// Config returns the server's (normalized) configuration.
func (s *Server) Config() Config { return s.cfg }

// Pool returns the server's batch pool, for callers that want to fan out
// encoding next to serving.
func (s *Server) Pool() *batch.Pool { return s.pool }

// Snapshot returns the current published snapshot: one atomic load, safe
// at any read fan-in. The result is immutable — hold it as long as needed;
// later writes publish new snapshots instead of touching this one.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// ---------------------------------------------------------------------------
// Write plane
// ---------------------------------------------------------------------------

// Sample is one encoded classification training example.
type Sample struct {
	Class int
	HV    *bitvec.Vector
}

// maxSymbolLen bounds an item symbol's length in bytes. validate refuses a
// longer symbol, and Restore refuses one in a snapshot or checkpoint, so
// every symbol a server acknowledges can be checkpointed and reloaded.
const maxSymbolLen = 1 << 20

// Batch is one atomic unit of writes. ApplyBatch validates everything
// before mutating anything, so a rejected batch leaves the server exactly
// as it was.
type Batch struct {
	Train []Sample // classifier additions
	Items []string // item-memory membership churn: symbols to intern
}

// validate checks the batch against the server shape without mutating.
func (s *Server) validate(b *Batch) error {
	for i, smp := range b.Train {
		if smp.Class < 0 || smp.Class >= s.cfg.Classes {
			return fmt.Errorf("serve: train[%d] class %d outside [0,%d)", i, smp.Class, s.cfg.Classes)
		}
		if smp.HV == nil || smp.HV.Dim() != s.cfg.Dim {
			return fmt.Errorf("serve: train[%d] has wrong dimension", i)
		}
	}
	for i, sym := range b.Items {
		if len(sym) > maxSymbolLen {
			return fmt.Errorf("serve: item[%d] is %d bytes, longer than %d", i, len(sym), maxSymbolLen)
		}
	}
	return nil
}

// ApplyBatch validates and applies one write batch through the
// single-writer path, rebuilds the dirtied shard views, and publishes (and
// returns) the new snapshot. Readers switch to it on their next Snapshot
// load; snapshots already held stay valid and frozen. On error nothing is
// mutated and the current snapshot remains published.
//
// On a durable server (Open with Config.WAL) the encoded batch is
// appended to the write-ahead log BEFORE anything mutates, so a batch
// that was acknowledged here survives a crash; with WALConfig.SyncEvery=1
// it is fsynced before ApplyBatch returns. A log failure is sticky:
// the in-memory state stays consistent, but further writes fail fast
// rather than silently diverging from the log.
func (s *Server) ApplyBatch(b Batch) (*Snapshot, error) {
	return s.ApplyBatchContext(context.Background(), b)
}

// ApplyBatchContext is ApplyBatch bounded by a context: a caller whose
// deadline expires while queued behind another writer gets ctx.Err()
// instead of waiting out someone else's slow fsync. The bound covers
// ADMISSION only — once this writer holds the write slot the batch runs
// to completion, because abandoning a batch after its log append would
// desync the log from memory.
func (s *Server) ApplyBatchContext(ctx context.Context, b Batch) (*Snapshot, error) {
	if err := s.acquireWriter(ctx); err != nil {
		return nil, err
	}
	defer func() { <-s.wsem }()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.role == RoleFollower {
		if s.primaryURL != "" {
			return nil, fmt.Errorf("%w (primary: %s)", ErrNotPrimary, s.primaryURL)
		}
		return nil, ErrNotPrimary
	}
	if s.walErr != nil {
		return nil, fmt.Errorf("%w: %w earlier: %v", ErrDegraded, ErrWALFailed, s.walErr)
	}
	if err := s.validate(&b); err != nil {
		return nil, err
	}
	if s.wal != nil {
		if _, err := s.wal.Append(encodeBatch(&b)); err != nil {
			s.degradeLocked(err)
			return nil, fmt.Errorf("%w: %w: write-ahead append: %w", ErrDegraded, ErrWALFailed, err)
		}
	}
	snap, err := s.applyLocked(&b)
	if err != nil {
		// The batch is already in the log but did not fully apply (today
		// unreachable: validation covers everything applyLocked does). The
		// in-memory state can no longer be trusted to match the log, so
		// fail-stop exactly like a log error rather than let the
		// record-seq == version invariant silently desync.
		if s.wal != nil {
			s.degradeLocked(err)
		}
		return nil, err
	}
	s.maybeCheckpointLocked()
	return snap, nil
}

// acquireWriter takes the single write slot (wsem) for a writer, or
// returns ctx.Err() if the context ends while it queues. The caller
// releases the slot with <-s.wsem. An already-expired context (a 0
// deadline, a cancelled request) fails deterministically rather than win
// a race against a free slot.
func (s *Server) acquireWriter(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case s.wsem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// degradeLocked moves the server to StateDegraded under mu: the cause
// becomes the sticky walErr, the transition is timestamped, and (when the
// config arms one) a bounded background probe starts retrying recovery.
func (s *Server) degradeLocked(cause error) {
	if s.walErr != nil {
		return
	}
	s.walErr = cause
	s.degradedSince = time.Now()
	if s.walCfg.RetryInterval > 0 && !s.probing && !s.closed {
		s.probing = true
		s.probeWG.Add(1)
		go s.probeLoop()
	}
}

// probeLoop retries Recover every WALConfig.RetryInterval, up to RetryMax
// attempts. It stops early on success, on Close, and on an unrecoverable
// log (retrying cannot grow a log that lost acknowledged records).
func (s *Server) probeLoop() {
	defer s.probeWG.Done()
	defer func() {
		s.mu.Lock()
		s.probing = false
		s.mu.Unlock()
	}()
	ticker := time.NewTicker(s.walCfg.RetryInterval)
	defer ticker.Stop()
	for attempt := 0; attempt < s.walCfg.retryMax(); attempt++ {
		select {
		case <-s.probeStop:
			return
		case <-ticker.C:
		}
		switch err := s.Recover(); {
		case err == nil:
			return
		case errors.Is(err, ErrClosed), errors.Is(err, ErrUnrecoverable):
			return
		}
	}
}

// Recover attempts to clear a degraded server's storage fault: the log is
// reopened (which truncates any partial frame the fault left mid-segment),
// any intact records beyond the applied version are replayed into the
// models (they were written but never acknowledged — the same catch-up a
// crash restart performs), and writes are re-enabled. If the reopened log
// resumes BEFORE the acknowledged version and no checkpoint covers the
// gap, acknowledged writes are gone: Recover returns ErrUnrecoverable and
// the server stays degraded. On a healthy (or non-durable) server Recover
// is a no-op.
func (s *Server) Recover() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recoverLocked()
}

func (s *Server) recoverLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.walErr == nil || s.wal == nil {
		return nil
	}
	// The old handle is poisoned (fail-stop after its first fault); its
	// close error carries no new information.
	_ = s.wal.Close()
	if err := s.reopenLogLocked(); err != nil {
		return err
	}
	s.walErr = nil
	s.degradedSince = time.Time{}
	return nil
}

// State reports where the server is in its lifecycle: healthy, degraded
// (reads only), or closed.
func (s *Server) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return StateClosed
	case s.walErr != nil:
		return StateDegraded
	default:
		return StateHealthy
	}
}

// Degraded reports whether the server is in degraded read-only mode, and
// if so since when and why.
func (s *Server) Degraded() (reason error, since time.Time, degraded bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.walErr == nil || s.closed {
		return nil, time.Time{}, false
	}
	return s.walErr, s.degradedSince, true
}

// applyLocked applies a validated batch to the master models and publishes
// the next snapshot. Called under s.mu, after (on durable servers) the
// batch is in the log — which is why it is deterministic: recovery replays
// log records through this same path and must land on identical bits.
func (s *Server) applyLocked(b *Batch) (*Snapshot, error) {
	dirtyCls := make([]bool, len(s.shards))
	dirtyItems := make([]bool, len(s.shards))

	// Classifier training, grouped by shard so the pool can fan the
	// accumulator updates out with each shard owned by exactly one worker
	// (bit-identical to sequential application — integer adds commute).
	byShard := make([][]Sample, len(s.shards))
	for _, smp := range b.Train {
		sh := s.shardOf[smp.Class]
		byShard[sh] = append(byShard[sh], smp)
		dirtyCls[sh] = true
	}
	s.pool.ForEach(len(s.shards), func(sh int) {
		st := s.shards[sh]
		for _, smp := range byShard[sh] {
			st.cls.Add(st.local[smp.Class], smp.HV)
		}
	})
	s.samples += uint64(len(b.Train))

	// Item-memory membership churn, routed by symbol.
	for _, sym := range b.Items {
		sh := s.ring.ShardForItem(sym)
		st := s.shards[sh]
		before := st.items.Len()
		st.items.Get(sym)
		if st.items.Len() != before {
			s.nitems++
			dirtyItems[sh] = true
		}
	}

	s.version++
	snap := s.buildSnapshotLocked(dirtyCls, dirtyItems)
	s.snap.Store(snap)
	s.notifyApplied()
	return snap, nil
}

// buildSnapshotLocked assembles the next snapshot under the writer lock.
// Shards not marked dirty reuse their previous view unchanged (the Sets
// are immutable, so sharing is free); classifier-dirty shards re-finalize
// across the pool and publish the classifier's own prototype Set,
// item-dirty shards only refresh the item Set. A nil slice means "all
// dirty" for that aspect.
func (s *Server) buildSnapshotLocked(dirtyCls, dirtyItems []bool) *Snapshot {
	prev := s.snap.Load()
	snap := &Snapshot{
		version: s.version,
		dim:     s.cfg.Dim,
		classes: s.cfg.Classes,
		shardOf: s.shardOf,
		shards:  make([]shardView, len(s.shards)),
		samples: s.samples,
		items:   s.nitems,
	}
	s.pool.ForEach(len(s.shards), func(i int) {
		clsDirty := prev == nil || dirtyCls == nil || dirtyCls[i]
		itemsDirty := prev == nil || dirtyItems == nil || dirtyItems[i]
		if !clsDirty && !itemsDirty {
			snap.shards[i] = prev.shards[i]
			return
		}
		st := s.shards[i]
		view := shardView{classes: st.classes}
		if !clsDirty {
			view.protos = prev.shards[i].protos
		} else if st.cls != nil {
			view.protos = st.cls.Prototypes() // deterministic: fixed tie vectors
		}
		if !itemsDirty {
			view.syms, view.items = prev.shards[i].syms, prev.shards[i].items
		} else {
			// Item memories only append, so this generation extends the
			// previous snapshot's and the Set may keep its index: small item
			// batches then cost O(batch), not O(items × signature).
			var prevItems *index.Set
			if prev != nil {
				prevItems = prev.shards[i].items
			}
			syms, vecs := st.items.View()
			view.syms, view.items = syms, index.NewSet(vecs, s.ixCfg, prevItems)
		}
		snap.shards[i] = view
	})
	return snap
}

// ---------------------------------------------------------------------------
// Read plane conveniences (stats-counted)
// ---------------------------------------------------------------------------

// Predict classifies against the current snapshot.
func (s *Server) Predict(q *bitvec.Vector) (class int, distance float64) {
	s.reads.Add(1)
	return s.Snapshot().Predict(q)
}

// PredictBatch classifies every query against ONE consistent snapshot,
// fanning out over the server pool; results are bit-identical to
// sequential Predict calls against that snapshot.
func (s *Server) PredictBatch(qs []*bitvec.Vector) (classes []int, distances []float64) {
	s.reads.Add(uint64(len(qs)))
	return s.Snapshot().PredictBatch(s.pool, qs)
}

// Lookup runs item-memory cleanup against the current snapshot.
func (s *Server) Lookup(q *bitvec.Vector) (symbol string, sim float64, ok bool) {
	s.reads.Add(1)
	return s.Snapshot().Lookup(q)
}

// CountReads adds n to the served-reads counter. Front ends that read
// through a held Snapshot (to keep one consistent version per request)
// rather than the Server convenience methods use this to keep the stats
// honest.
func (s *Server) CountReads(n int) {
	if n > 0 {
		s.reads.Add(uint64(n))
	}
}

// Stats is a point-in-time operational summary.
type Stats struct {
	Version     uint64 `json:"version"`
	Dim         int    `json:"dim"`
	Classes     int    `json:"classes"`
	Shards      int    `json:"shards"`
	Workers     int    `json:"workers"`
	Samples     uint64 `json:"samples"`
	Items       int    `json:"items"`
	ReadsServed uint64 `json:"reads_served"`
	// Durable reports whether a write-ahead log backs this server, and
	// LastCheckpoint the newest durable checkpoint version (0 when none
	// has been taken yet).
	Durable        bool   `json:"durable"`
	LastCheckpoint uint64 `json:"last_checkpoint,omitempty"`
	// WALSeq is the newest write-ahead record sequence appended (record
	// seq == snapshot version, so WALSeq − LastCheckpoint bounds how much
	// log a restart or a catching-up replica must replay). WALSegments is
	// the live log segment count after compaction. WALError is the sticky
	// durability failure — empty on a healthy server; non-empty means
	// every write is failing fast and an operator must step in. All three
	// are zero/empty on in-memory servers.
	WALSeq      uint64 `json:"wal_seq,omitempty"`
	WALSegments int    `json:"wal_segments,omitempty"`
	WALError    string `json:"wal_error,omitempty"`
	// Degraded reports read-only mode: a sticky storage fault stopped the
	// write plane while reads keep serving the published snapshot.
	// DegradedSince timestamps the transition.
	Degraded      bool      `json:"degraded,omitempty"`
	DegradedSince time.Time `json:"degraded_since,omitzero"`
	// Role ("primary" or "follower") and Replication are the stats schema
	// v2 additions: both are omitted on servers that are not part of a
	// replication tier, so v1 consumers see an unchanged document. Role is
	// reported once BecomeFollower or Promote has run; Replication is
	// filled by the registered replication stats callback (the shipper on
	// a primary, the applier on a follower).
	Role        string            `json:"role,omitempty"`
	Replication *ReplicationStats `json:"replication,omitempty"`
}

// Stats summarizes the current snapshot plus served-read counters.
func (s *Server) Stats() Stats {
	snap := s.Snapshot()
	st := Stats{
		Version:     snap.version,
		Dim:         s.cfg.Dim,
		Classes:     s.cfg.Classes,
		Shards:      len(s.shards),
		Workers:     s.pool.Workers(),
		Samples:     snap.samples,
		Items:       snap.items,
		ReadsServed: s.reads.Load(),
	}
	// The log handle is read under mu: recovery swaps it for a fresh one
	// when a degraded server heals.
	s.mu.Lock()
	log := s.wal
	werr := s.walErr
	if log != nil && werr != nil && !s.closed {
		st.Degraded = true
		st.DegradedSince = s.degradedSince
	}
	if s.roleSet {
		st.Role = s.role.String()
	}
	replFn := s.replStatsFn
	s.mu.Unlock()
	if replFn != nil {
		r := replFn()
		st.Replication = &r
	}
	if log != nil {
		st.Durable = true
		st.LastCheckpoint = s.lastCkpt.Load()
		st.WALSeq = log.NextSeq() - 1
		st.WALSegments = len(log.Segments())
		s.errMu.Lock()
		cerr := s.ckptErr
		s.errMu.Unlock()
		switch {
		case werr != nil:
			st.WALError = werr.Error()
		case cerr != nil:
			st.WALError = "background checkpoint: " + cerr.Error()
		}
	}
	return st
}
