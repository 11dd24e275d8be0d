// Package hdcirc is a Go implementation of basis-hypervectors for
// Hyperdimensional Computing (HDC), reproducing "An Extension to
// Basis-Hypervectors for Learning from Circular Data in Hyperdimensional
// Computing" (Nunes, Heddes, Givargis, Nicolau — DAC 2023,
// arXiv:2205.07920).
//
// The package exposes the following layers:
//
//   - Hypervector arithmetic: binary vectors in {0,1}^d with binding (XOR),
//     bundling (majority / integer accumulators) and permutation (cyclic
//     shift). See Vector, Accumulator, Majority.
//   - Basis-hypervector sets: Random, LevelLegacy, Level (the paper's
//     Algorithm 1), Circular (the paper's main contribution) and Scatter
//     generators, all parameterized by the r correlation-relaxation
//     hyperparameter where applicable. See NewBasis and the Kind constants.
//   - Encoders: scalar (level), circular (angle), symbol item memories,
//     record (⊕ Kᵢ ⊗ Vᵢ), sequence and n-gram encoders. See NewScalarEncoder,
//     NewCircularEncoder, NewItemMemory, NewRecordEncoder.
//   - Learning: the standard HDC centroid classifier (with optional online
//     refinement) and the bind-and-memorize regressor with invertible label
//     decoding. See NewClassifier, NewRegressor.
//   - Batch pipeline: a GOMAXPROCS-sized worker pool that fans encode,
//     train and predict out across cores with results bit-identical to the
//     sequential path for any worker count. See NewBatchPool, EncodeBatch,
//     and the Classifier AddBatch/PredictBatch/RefineBatch methods.
//   - Online serving: the models behind immutable, versioned snapshots —
//     lock-free reads at any fan-in, a single-writer apply path for
//     training/churn, consistent-hash sharding, and live snapshot
//     persistence with warm start. See NewServer, ServerConfig, Snapshot,
//     and the cmd/hdcserve HTTP front end.
//   - Durability: a CRC-framed, fsync-batched write-ahead log plus
//     exact-state checkpoints make the serving layer crash-safe — every
//     acknowledged batch is logged before it is applied, recovery replays
//     the surviving prefix into a bit-identical snapshot (a torn tail is
//     truncated, a partial record never replayed), and checkpoints bound
//     recovery cost to one state file plus the log suffix. See
//     OpenDurableServer, WALConfig, and the Server Checkpoint/Close
//     methods; cmd/hdcserve exposes it as -data-dir.
//   - Degraded operation: a storage fault under the log does not kill a
//     durable server — it degrades to read-only. Writes fail fast with
//     errors wrapping ErrServerWALFailed and ErrServerDegraded (503
//     read_only with a Retry-After hint on the wire), reads keep serving
//     the last acknowledged snapshot, and the server probes the disk on
//     the WALConfig RetryInterval cadence until recovery replays any
//     unacknowledged records and re-enables writes. Server.State reports
//     the healthy/degraded/closed machine, Server.Recover is the manual
//     handle, and /v1/healthz?plane=write gives load balancers a 503
//     that drains write traffic while reads stay. Request lifecycles are
//     deadline-bounded server-side (ServeHandlerConfig WriteDeadline /
//     PredictDeadline → 504 deadline_exceeded) and client-side (per-call
//     timeouts, a total retry budget, and a circuit breaker that trips
//     on consecutive write-plane 503s and half-opens through a healthz
//     probe). All storage flows through the internal/vfs seam, so every
//     fault mode — ENOSPC, EIO, torn writes, failed fsyncs and renames —
//     is exercised by injection in tests, including a chaos property
//     test whose failing case is an acknowledged-then-lost write.
//   - Serving API v1: the HTTP wire layer over the serving core — typed
//     protocol structs and a structured error envelope shared by server
//     and client, versioned routes, NDJSON streaming bulk endpoints that
//     coalesce rows into write batches, request hardening (bounded
//     bodies, method/Content-Type enforcement, unknown-field rejection)
//     and admission control (bounded in-flight work; overload is a
//     structured 429 with Retry-After). Embed it with ServeHandler +
//     NewServeEncoder; cmd/hdcserve is a thin flag shell over the same
//     call, and the Go client SDK lives in package hdcirc/client (typed
//     methods for every endpoint, retry with backoff, streaming ingest
//     and prediction, client-side batch coalescing).
//   - Horizontal scale: the serving tier replicates and shards. A primary
//     ships its write-ahead log to read replicas over
//     /v1/replicate:stream (NewReplicationSource,
//     StartReplicationFollower; converged replicas serve byte-identical
//     snapshots, the client SDK routes reads to replicas and follows
//     not_primary hints on failover). Above replication, a versioned
//     ClusterManifest — HCLU binary with whole-file CRC, or JSON — binds
//     shard groups into one tier: every node and client builds the same
//     hashring from the manifest's pinned seed and geometry, classes and
//     item symbols each route to one owning shard, and a node scoped
//     with NewClusterNode refuses misrouted writes with a structured
//     wrong_shard error carrying the owner's endpoints. The shard-aware
//     cluster client (client.NewClusterClient) splits writes per owner,
//     streams bulk ingest on per-shard coalesced connections, and
//     answers predictions by scatter-gather over raw integer per-class
//     distances (POST /v1/scores) merged with the exact unsharded
//     tie-break — bit-identical to a single unsharded server trained on
//     the same rows. See ClusterManifest, NewClusterNode and
//     examples/cluster.
//
// Every hot loop — bundling accumulation, majority thresholding, rotation,
// nearest-prototype search — runs as a word-parallel kernel over the
// packed 64-bit representation rather than bit by bit; see internal/bitvec
// for the kernel catalog (Nearest, DistanceMany, XorDistance,
// DistanceBounded, NearestPruned, the carry-save-adder Majority) and
// cmd/hdcbench for the tracked ns/op numbers.
//
// Associative lookups additionally go sublinear past a size threshold:
// ItemMemory.Lookup, Classifier.Predict, SDM activation and the serving
// snapshots all search through one internal/index Set, which scans
// exactly below the threshold and past it uses a bit-sampling sketch
// index — signature-distance candidate generation plus exact re-rank with
// the early-abandon kernel. The recall/latency trade is tunable
// through IndexConfig (exact mode: Candidates >= collection size; opt
// out: Disabled), see NewAssocIndex, NewIndexedItemMemory and the Index
// field on ServerConfig.
//
// A minimal classification session:
//
//	stream := hdcirc.NewStream(42)
//	basis := hdcirc.NewBasis(hdcirc.Circular, 24, 10000, 0.1, stream)
//	enc := hdcirc.NewCircularEncoder(basis, 2*math.Pi)
//	clf := hdcirc.NewClassifier(numClasses, 10000, 42)
//	for _, s := range train {
//		clf.Add(s.Label, enc.Encode(s.Angle))
//	}
//	class, _ := clf.Predict(enc.Encode(query))
//
// Everything is deterministic given the seeds, uses only the standard
// library, and has no global state. The experiment harness that regenerates
// the paper's tables and figures lives in cmd/hdcrepro; runnable
// walk-throughs live under examples/.
package hdcirc
