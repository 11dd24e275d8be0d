package hdcirc

import (
	"context"
	"net/http"

	"hdcirc/internal/batch"
	"hdcirc/internal/bitvec"
	"hdcirc/internal/cluster"
	"hdcirc/internal/core"
	"hdcirc/internal/embed"
	"hdcirc/internal/hashring"
	"hdcirc/internal/httpapi"
	"hdcirc/internal/index"
	"hdcirc/internal/markov"
	"hdcirc/internal/model"
	"hdcirc/internal/repl"
	"hdcirc/internal/rng"
	"hdcirc/internal/scenario"
	"hdcirc/internal/serve"
)

// ---------------------------------------------------------------------------
// Hypervector arithmetic
// ---------------------------------------------------------------------------

// Vector is a binary hypervector in {0,1}^d. See the methods on
// bitvec.Vector: Xor (binding), Distance/Similarity, RotateBits
// (permutation), Bit/SetBit/FlipBit and friends.
type Vector = bitvec.Vector

// Accumulator is the integer-counter form of bundling used for training.
type Accumulator = bitvec.Accumulator

// NewVector returns the all-zeros hypervector of dimension d.
func NewVector(d int) *Vector { return bitvec.New(d) }

// NewAccumulator returns an empty bundling accumulator of dimension d.
func NewAccumulator(d int) *Accumulator { return bitvec.NewAccumulator(d) }

// RandomVector draws a uniform hypervector from the stream.
func RandomVector(d int, stream *Stream) *Vector { return bitvec.Random(d, stream) }

// Majority bundles the operands element-wise; see bitvec.Majority. Each
// tied position, possible only for an even operand count, takes one coin
// from stream, which may be nil only for an odd operand count.
func Majority(vs []*Vector, stream *Stream) *Vector {
	if stream == nil {
		// A nil *Stream in the Source interface would pass bitvec's nil
		// check and fail at the first coin instead.
		return bitvec.Majority(vs, nil)
	}
	return bitvec.Majority(vs, stream)
}

// Nearest returns the index in vs of the vector nearest to q (ties resolve
// to the lowest index) and the Hamming distance, scanning with the fused
// allocation-free kernel.
func Nearest(q *Vector, vs []*Vector) (idx, hamming int) { return bitvec.Nearest(q, vs) }

// DistanceMany stores the Hamming distance from q to every vs[i] into
// dst[i] (pass nil to allocate) and returns dst.
func DistanceMany(q *Vector, vs []*Vector, dst []int) []int {
	return bitvec.DistanceMany(q, vs, dst)
}

// XorDistance returns the Hamming distance between the binding x ⊗ y and z
// without materializing the bound vector.
func XorDistance(x, y, z *Vector) int { return bitvec.XorDistance(x, y, z) }

// DistanceBounded computes the Hamming distance between a and b with early
// abandon: it bails out of the word loop as soon as the running distance
// exceeds bound, returning (distance, true) when the true distance is at
// most bound and (partial, false) otherwise.
func DistanceBounded(a, b *Vector, bound int) (hd int, within bool) {
	return bitvec.DistanceBounded(a, b, bound)
}

// NearestPruned scans vs for the vector nearest to q among those with
// Hamming distance strictly below bound (ties resolve to the lowest index);
// it returns (-1, bound) when no candidate beats the bound.
func NearestPruned(q *Vector, vs []*Vector, bound int) (idx, hamming int) {
	return bitvec.NearestPruned(q, vs, bound)
}

// ---------------------------------------------------------------------------
// Sublinear associative lookup
// ---------------------------------------------------------------------------

// IndexConfig tunes how associative lookups search a collection
// (internal/index): exactly below a size threshold, through a bit-sampling
// sketch index past it. It sets the signature width, exact-re-rank
// candidate count, threshold, sampling seed, radius-screen slack, and
// Disabled for exact-only operation. The zero value selects the defaults
// (256-bit signatures, auto candidates, threshold 2048). Candidates >=
// collection size makes indexed lookups bit-identical to the exact linear
// scan.
type IndexConfig = index.Config

// AssocIndex is an immutable collection of hypervectors that answers
// Nearest and WithinRadius: an exact scan below IndexConfig.MinSize, past
// it sublinear candidate generation plus exact re-rank, and a signature
// screen before exact verification. Safe for any number of concurrent
// readers.
type AssocIndex = index.Set

// DefaultIndexConfig returns the default sketch-index configuration.
func DefaultIndexConfig() IndexConfig { return index.DefaultConfig() }

// NewAssocIndex returns the searchable collection over vs (shared, not
// copied; do not mutate the vectors while it lives). It panics on
// mismatched dimensions once vs is large enough to index.
func NewAssocIndex(vs []*Vector, cfg IndexConfig) *AssocIndex { return index.NewSet(vs, cfg, nil) }

// NewIndexedItemMemory returns an empty item memory whose Lookup is served
// through a sketch index under the given configuration once it grows past
// cfg.MinSize. NewItemMemory already auto-indexes with the defaults; use
// this to tune the recall/latency trade-off or to pin exact mode
// (Candidates >= expected size, or Disabled: true).
func NewIndexedItemMemory(d int, seed uint64, cfg IndexConfig) *ItemMemory {
	im := embed.NewItemMemory(d, seed)
	im.SetIndexConfig(cfg)
	return im
}

// ---------------------------------------------------------------------------
// Batch pipeline
// ---------------------------------------------------------------------------

// BatchPool is a fixed-size worker pool for the concurrent batch pipeline.
// Every batched operation is bit-identical to its sequential counterpart
// regardless of the pool size; see internal/batch for the determinism
// contract.
type BatchPool = batch.Pool

// NewBatchPool returns a pool of the given size; workers <= 0 selects
// GOMAXPROCS.
func NewBatchPool(workers int) *BatchPool { return batch.New(workers) }

// EncodeBatch encodes every sample across the pool and returns the
// hypervectors in input order. The encode function must be safe for
// concurrent use — the record, sequence, n-gram, scalar and circular
// encoders all are (fixed tie vectors, no internal mutation), but
// ItemMemory.Get is not (it lazily inserts; intern symbols first).
func EncodeBatch[T any](p *BatchPool, samples []T, encode func(T) *Vector) []*Vector {
	return batch.Map(p, samples, encode)
}

// Batched training and inference on Classifier — AddBatch, PredictBatch
// and RefineBatch — are methods on the Classifier alias; see
// internal/model.

// ---------------------------------------------------------------------------
// Randomness
// ---------------------------------------------------------------------------

// Stream is a deterministic random stream (xoshiro256** seeded through
// splitmix64).
type Stream = rng.Stream

// NewStream returns a Stream for the given seed.
func NewStream(seed uint64) *Stream { return rng.New(seed) }

// SubStream derives an independent named stream from a root seed; equal
// (seed, label) pairs always produce identical streams.
func SubStream(seed uint64, label string) *Stream { return rng.Sub(seed, label) }

// ---------------------------------------------------------------------------
// Basis-hypervector sets
// ---------------------------------------------------------------------------

// Basis is an ordered basis-hypervector set.
type Basis = core.Set

// Kind identifies a basis-hypervector family.
type Kind = core.Kind

// Basis families.
const (
	// Random is the uncorrelated set for symbolic data.
	Random = core.KindRandom
	// LevelLegacy is the pre-existing fixed-flip level construction.
	LevelLegacy = core.KindLevelLegacy
	// Level is the paper's Algorithm 1 interpolation construction.
	Level = core.KindLevel
	// Circular is the paper's two-phase circular construction.
	Circular = core.KindCircular
	// Scatter is the Markov-calibrated scatter-code construction.
	Scatter = core.KindScatter
)

// NewBasis generates a basis set of the given family with m vectors of
// dimension d. r is the correlation-relaxation hyperparameter of the
// paper's Section 5.2 (used by Level and Circular; pass 0 for the plain
// constructions, it is ignored by the other families).
func NewBasis(kind Kind, m, d int, r float64, stream *Stream) *Basis {
	return core.Config{Kind: kind, M: m, D: d, R: r}.Build(stream)
}

// SimilarityMatrix returns the pairwise similarity matrix of a basis set
// (the paper's Figures 3 and 6).
func SimilarityMatrix(b *Basis) [][]float64 { return core.SimilarityMatrix(b) }

// LevelExpectedDistance returns E[δ(L_i, L_j)] = |j−i|/(2(m−1)) for an
// Algorithm-1 level set (Proposition 4.1).
func LevelExpectedDistance(m, i, j int) float64 { return core.LevelExpectedDistance(m, i, j) }

// CircularExpectedDistance returns the arc-proportional expected distance
// profile of a circular set.
func CircularExpectedDistance(m, i, j int) float64 { return core.CircularExpectedDistance(m, i, j) }

// ExpectedFlips returns the expected number of single-bit flips until a
// random walk in {0,1}^d first reaches Hamming distance k — the Section 4.2
// Markov-chain calibration used by scatter codes.
func ExpectedFlips(d, k int) (float64, error) { return markov.ExpectedFlipsRecurrence(d, k) }

// ---------------------------------------------------------------------------
// Encoders
// ---------------------------------------------------------------------------

// ScalarEncoder quantizes a real interval onto a basis set (invertible).
type ScalarEncoder = embed.ScalarEncoder

// CircularEncoder quantizes a periodic value onto a basis set, wrapping at
// the period (invertible).
type CircularEncoder = embed.CircularEncoder

// ItemMemory lazily maps symbols to random-hypervectors.
type ItemMemory = embed.ItemMemory

// RecordEncoder encodes numeric records as ⊕ᵢ Kᵢ ⊗ Vᵢ.
type RecordEncoder = embed.RecordEncoder

// SequenceEncoder encodes ordered sequences with position permutations.
type SequenceEncoder = embed.SequenceEncoder

// NGramEncoder encodes sequences as bundles of bound n-grams.
type NGramEncoder = embed.NGramEncoder

// FieldEncoder is any scalar-to-hypervector encoder (ScalarEncoder and
// CircularEncoder both satisfy it).
type FieldEncoder = embed.FieldEncoder

// NewScalarEncoder wraps a basis set as an encoder of [lo, hi].
func NewScalarEncoder(b *Basis, lo, hi float64) *ScalarEncoder {
	return embed.NewScalarEncoder(b, lo, hi)
}

// NewCircularEncoder wraps a basis set as an encoder of a periodic value.
func NewCircularEncoder(b *Basis, period float64) *CircularEncoder {
	return embed.NewCircularEncoder(b, period)
}

// NewItemMemory returns an empty symbol memory over dimension d.
func NewItemMemory(d int, seed uint64) *ItemMemory { return embed.NewItemMemory(d, seed) }

// NewRecordEncoder returns a record encoder with nFields random keys.
func NewRecordEncoder(d, nFields int, seed uint64) *RecordEncoder {
	return embed.NewRecordEncoder(d, nFields, seed)
}

// NewSequenceEncoder returns a position-permuting sequence encoder.
func NewSequenceEncoder(d int, seed uint64) *SequenceEncoder {
	return embed.NewSequenceEncoder(d, seed)
}

// NewNGramEncoder returns an n-gram sequence encoder.
func NewNGramEncoder(d, n int, seed uint64) *NGramEncoder {
	return embed.NewNGramEncoder(d, n, seed)
}

// ---------------------------------------------------------------------------
// Learning
// ---------------------------------------------------------------------------

// Classifier is the HDC centroid classification model (Section 2.2).
type Classifier = model.Classifier

// Regressor is the single-hypervector regression model (Section 2.3).
type Regressor = model.Regressor

// NewClassifier creates a classifier over k classes and dimension d.
func NewClassifier(k, d int, seed uint64) *Classifier { return model.NewClassifier(k, d, seed) }

// NewRegressor creates a regressor over dimension d.
func NewRegressor(d int, seed uint64) *Regressor { return model.NewRegressor(d, seed) }

// ---------------------------------------------------------------------------
// Applications
// ---------------------------------------------------------------------------

// HashRing is a consistent-hashing ring over circular-hypervector
// positions (Hyperdimensional Hashing, Heddes et al. DAC 2022).
type HashRing = hashring.Ring

// NewHashRing creates a hash ring with m positions of dimension d. It
// returns an error when m < 2 or d <= 0.
func NewHashRing(m, d int, seed uint64) (*HashRing, error) { return hashring.New(m, d, seed) }

// ---------------------------------------------------------------------------
// Online serving
// ---------------------------------------------------------------------------

// Server is the concurrency-safe online inference layer: the models live
// behind immutable versioned snapshots swapped through an atomic pointer,
// so reads are lock-free at any fan-in while writes flow through a
// single-writer apply path. Classes and item symbols are sharded across
// sub-models by a consistent-hashing ring. See internal/serve for the full
// contract; cmd/hdcserve is an HTTP front end over this API.
type Server = serve.Server

// ServerConfig parameterizes a Server: dimension, class count, shard and
// worker fan-out, seed, routing ring, snapshot indexes and, for
// OpenDurableServer, the write-ahead log.
type ServerConfig = serve.Config

// Snapshot is an immutable, versioned, finalized view of every model a
// Server hosts. All methods are pure reads; a snapshot stays valid (and
// frozen) for as long as it is held, no matter how many writes the server
// applies afterwards. Snapshots serialize with WriteTo while the server
// keeps serving, and warm-start a fresh server via Server.Restore.
type Snapshot = serve.Snapshot

// ServerBatch is one atomic unit of server writes — classifier training
// samples and item-memory membership churn — applied by Server.ApplyBatch,
// which validates the whole batch before mutating anything and publishes
// (and returns) the next snapshot. The regression and SDM models are
// in-process (NewRegressor, NewSDM); a Server does not host them.
type ServerBatch = serve.Batch

// ServerSample is one encoded classification example in a ServerBatch.
type ServerSample = serve.Sample

// ServerStats is the point-in-time operational summary from Server.Stats.
type ServerStats = serve.Stats

// NewServer builds a serving layer over k classes and dimension d with the
// given sharding; config problems are errors, not panics. The server is
// purely in-memory — see OpenDurableServer for crash safety.
func NewServer(cfg ServerConfig) (*Server, error) { return serve.NewServer(cfg) }

// ServerState is where a Server is in its lifecycle: healthy (reads and
// writes), degraded (a storage fault stopped the write plane; reads keep
// serving the last published snapshot), or closed. Query it with
// Server.State and Server.Degraded; a degraded server heals through
// Server.Recover (or the WALConfig.RetryInterval auto-probe).
type ServerState = serve.State

// Server lifecycle states.
const (
	ServerHealthy  = serve.StateHealthy
	ServerDegraded = serve.StateDegraded
	ServerClosed   = serve.StateClosed
)

// Server lifecycle errors, matchable with errors.Is through any wrapping.
var (
	// ErrServerClosed: the write arrived after Close. Orderly shutdown,
	// not a fault.
	ErrServerClosed = serve.ErrClosed
	// ErrServerWALFailed: the write-ahead log took a storage fault; the
	// in-memory state is consistent but writes fail until Recover.
	ErrServerWALFailed = serve.ErrWALFailed
	// ErrServerDegraded: the server is in degraded read-only mode (every
	// rejected write wraps this alongside ErrServerWALFailed).
	ErrServerDegraded = serve.ErrDegraded
	// ErrServerUnrecoverable: Recover found the log no longer proves the
	// acknowledged writes — recovery refused rather than silently losing
	// acked data.
	ErrServerUnrecoverable = serve.ErrUnrecoverable
)

// ---------------------------------------------------------------------------
// Durability
// ---------------------------------------------------------------------------

// WALConfig enables durable serving through OpenDurableServer: every
// applied batch is written ahead to a CRC-framed segmented log in Dir
// before it mutates anything, checkpoints persist the exact model state
// and bound recovery cost, and fully-covered log segments are dropped.
// Knobs: SyncEvery (fsync cadence in batches; 1 = every batch),
// SegmentBytes (log rotation threshold), CheckpointEvery (automatic
// background checkpoint cadence in batches; negative = manual only),
// KeepCheckpoints (retained checkpoint files), RetryInterval/RetryMax
// (bounded auto-recovery probe after a storage fault degrades the server
// to read-only; 0 interval = operator-driven Recover only), and FS (the
// filesystem seam — production leaves it nil for the OS; tests inject
// faults through it).
type WALConfig = serve.WALConfig

// OpenDurableServer builds a Server backed by a write-ahead log when
// cfg.WAL is set (and is exactly NewServer when it is nil): existing state
// in cfg.WAL.Dir is recovered — newest loadable checkpoint plus the log
// suffix, yielding a snapshot bit-identical to the pre-crash one — and
// every subsequent ApplyBatch is logged before it is applied. Use the
// Server methods Checkpoint (persist state now and compact the log) and
// Close (flush and stop writes; reads keep serving) to manage the
// durability lifecycle.
func OpenDurableServer(cfg ServerConfig) (*Server, error) { return serve.Open(cfg) }

// ---------------------------------------------------------------------------
// Serving API v1 (HTTP)
// ---------------------------------------------------------------------------

// APIError is serving protocol v1's structured error envelope: a
// machine-readable Code plus human message, each code mapping to a fixed
// HTTP status. The server emits it on every non-2xx JSON response and the
// client SDK (package hdcirc/client) returns it for server-reported
// faults.
type APIError = httpapi.Error

// APIErrorCode is the machine-readable error class inside an APIError; the
// protocol's code vocabulary lives in internal/httpapi (re-exported by the
// client package as client.Code*).
type APIErrorCode = httpapi.Code

// ServeHandlerConfig parameterizes ServeHandler: the Server to front, the
// feature-record Encoder, request bounds (MaxBodyBytes, MaxRowBytes),
// admission control (MaxInFlight, MaxQueue, RetryAfter), the streaming
// coalesce size (StreamBatch), and the request lifecycle deadlines
// (WriteDeadline per write batch, PredictDeadline for read-plane
// queueing; expirations answer 504 deadline_exceeded). Zero values select
// production defaults.
type ServeHandlerConfig = httpapi.Config

// ServeEncoder maps feature records to hypervectors for the HTTP layer;
// implementations must be safe for concurrent Encode calls. See
// NewServeEncoder for the standard stack.
type ServeEncoder = httpapi.Encoder

// ServeEncoderConfig sizes NewServeEncoder.
type ServeEncoderConfig = httpapi.ScalarRecordConfig

// NewServeEncoder builds the standard serving encoder: each of Fields
// features is level-encoded over [Lo, Hi] with Levels quantization steps
// and bound to its field key (the paper's record encoding ⊕ᵢ Kᵢ ⊗ Vᵢ).
// Equal configs yield bit-identical encoders — the determinism the
// serving contract depends on.
func NewServeEncoder(cfg ServeEncoderConfig) (ServeEncoder, error) {
	return httpapi.NewScalarRecordEncoder(cfg)
}

// ServeHandler builds the serving API v1 http.Handler over a Server —
// embedding the full HTTP surface (versioned routes, streaming bulk
// endpoints, admission control, request hardening) in another binary is
// this one call plus a mux mount. cmd/hdcserve is exactly this behind
// flag parsing; the Go client SDK for the protocol is package
// hdcirc/client.
func ServeHandler(cfg ServeHandlerConfig) (http.Handler, error) { return httpapi.New(cfg) }

// ServeAPI is the concrete handler behind ServeHandler. Use NewServeAPI
// when the embedding binary needs the runtime mutators — currently
// SetReplication, which the admin-promote failover path uses so a
// follower that just became primary starts hosting /v1/replicate:stream
// (letting the tier's other nodes re-follow it) without a rebuild.
type ServeAPI = httpapi.API

// NewServeAPI builds the serving API v1 handler, returning the concrete
// type instead of http.Handler.
func NewServeAPI(cfg ServeHandlerConfig) (*ServeAPI, error) { return httpapi.New(cfg) }

// ---------------------------------------------------------------------------
// Replication (WAL shipping, primary → followers)
// ---------------------------------------------------------------------------

// ReplicationSource is the primary-side shipper: it serves each connected
// follower's catch-up (newest checkpoint + write-ahead-log suffix) and
// then tails live applied batches to it over the long-lived
// /v1/replicate:stream request. Plug it into ServeHandlerConfig.Replication
// to host the endpoint; see internal/repl for the full contract.
type ReplicationSource = repl.Source

// ReplicationSourceConfig parameterizes NewReplicationSource: the durable
// Server to ship from, plus heartbeat cadence and catch-up chunk size.
type ReplicationSourceConfig = repl.SourceConfig

// NewReplicationSource builds the primary-side shipper over a durable
// (WAL-backed) server and registers its replication stats with it.
func NewReplicationSource(cfg ReplicationSourceConfig) (*ReplicationSource, error) {
	return repl.NewSource(cfg)
}

// ReplicationFollower is the replica-side applier: it connects to the
// primary's replicate stream with its last applied sequence, applies
// shipped records through the same validate-then-apply path as local
// writes (every snapshot bit-identical to the primary's at the same
// version), and reconnects with backoff across primary restarts.
type ReplicationFollower = repl.Follower

// ReplicationFollowerConfig parameterizes StartReplicationFollower: the
// local Server to apply into, the primary's base URL, and reconnect/ack
// cadence knobs (zero values select production defaults).
type ReplicationFollowerConfig = repl.FollowerConfig

// StartReplicationFollower puts the server into follower mode (writes
// answer not_primary; reads keep serving) and starts the replication
// loop. Stop with Close, or promote an up-to-date follower to primary
// with Promote.
func StartReplicationFollower(ctx context.Context, cfg ReplicationFollowerConfig) (*ReplicationFollower, error) {
	return repl.StartFollower(ctx, cfg)
}

// ---------------------------------------------------------------------------
// Sharded cluster (manifest, topology, shard ownership)
// ---------------------------------------------------------------------------

// ClusterManifest is the versioned document describing a horizontally
// sharded serving tier: shard count, hashring seed and geometry, and each
// shard group's endpoint set. It travels as HCLU binary (whole-file CRC,
// like snapshots and checkpoints) or JSON — Decode sniffs; Save writes
// binary with the atomic-rename publish discipline. hdcserve loads one
// with -cluster, cluster clients with client.NewClusterClientFromFile.
type ClusterManifest = cluster.Manifest

// ClusterShardEndpoints is one shard group's primary and read replicas.
type ClusterShardEndpoints = cluster.ShardEndpoints

// ClusterTopology answers key→shard ownership questions for a manifest:
// classes route by "class/<id>", item symbols by "item/<symbol>", over a
// hashring pinned by the manifest's seed and geometry.
type ClusterTopology = cluster.Topology

// ClusterNode is one server's view of the topology: the topology plus
// this node's own shard id. Plug it into ServeHandlerConfig.Cluster to
// make the node refuse misrouted writes with wrong_shard owner hints.
type ClusterNode = cluster.Node

// LoadClusterManifest reads and decodes a manifest file (HCLU binary or
// JSON, sniffed), verifying the CRC before any field is trusted.
func LoadClusterManifest(path string) (*ClusterManifest, error) { return cluster.Load(nil, path) }

// DecodeClusterManifest decodes manifest bytes (HCLU binary or JSON).
func DecodeClusterManifest(data []byte) (*ClusterManifest, error) { return cluster.Decode(data) }

// NewClusterTopology builds the routing view of a manifest.
func NewClusterTopology(m *ClusterManifest) (*ClusterTopology, error) { return cluster.NewTopology(m) }

// NewClusterNode scopes a manifest to one shard (0 ≤ shard < NumShards).
func NewClusterNode(m *ClusterManifest, shard int) (*ClusterNode, error) {
	return cluster.NewNode(m, shard)
}

// ---------------------------------------------------------------------------
// Served scenario workloads
// ---------------------------------------------------------------------------

// Scenario is one end-to-end served workload: model geometry, a
// deterministic wire encoder for a domain pipeline (n-gram text, GraphHD
// edge bundles, streaming EMG windows), train/test splits as wire rows,
// and the accuracy floor the served pipeline must reach. cmd/hdcserve
// hosts one with -scenario; cmd/hdcload replays its splits as traffic.
type Scenario = scenario.Scenario

// ScenarioRow is one labeled wire record of a scenario split.
type ScenarioRow = scenario.Row

// ScenarioNames lists the registered scenario workloads in stable order.
func ScenarioNames() []string { return scenario.Names() }

// BuildScenario constructs the named scenario deterministically: two
// calls yield bit-identical encoders and splits, so a load generator and
// a server agree on the workload without shipping model state.
func BuildScenario(name string) (*Scenario, error) { return scenario.Build(name) }
