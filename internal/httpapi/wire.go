// Package httpapi is serving protocol v1: the versioned HTTP wire layer
// over the concurrency-safe, durable serving core (internal/serve). It
// owns everything both sides of the wire must agree on — the typed
// request/response structs, the structured error envelope with
// machine-readable codes, the NDJSON framing of the streaming bulk
// endpoints — and the server half that speaks it: an http.Handler with
// request hardening (bounded bodies, method and Content-Type enforcement,
// unknown-field rejection) and admission control (bounded in-flight work
// and queue depth; overload is a structured 429 with Retry-After, never
// unbounded queuing).
//
// The top-level client package consumes these same types, so server and
// client cannot drift; cmd/hdcserve is a thin flag shell over Handler.
//
// # Routes
//
//	POST /v1/train           one write batch (samples + item churn)
//	POST /v1/predict         classify a batch of feature records
//	POST /v1/scores          raw per-class Hamming distances (scatter-gather)
//	GET  /v1/lookup          ?key= ring routing, ?symbol= membership
//	POST /v1/lookup          nearest-symbol cleanup of a feature record
//	GET  /v1/stats           operational summary incl. durability state
//	GET  /v1/cluster         the tier's cluster manifest + this node's shard
//	GET  /v1/snapshot        binary snapshot download (HSRV stream)
//	GET  /v1/healthz         liveness + current version
//	POST /v1/predict:stream  NDJSON bulk classification
//	POST /v1/ingest:stream   NDJSON bulk training / item interning
//	POST /v1/replicate:stream NDJSON WAL shipping to followers (duplex)
//	POST /v1/admin/promote   promote this node to primary (Config.EnableAdmin)
//
// # Error envelope
//
// Every non-2xx JSON response is {"error":{"code":…,"message":…}} where
// code is one of the Code* constants below; each code maps to a fixed
// HTTP status (Error.HTTPStatus). Overload responses additionally carry
// retry_after_ms in the envelope and a Retry-After header.
//
// # Streaming framing
//
// Both stream endpoints exchange NDJSON: one JSON object per \n-terminated
// line. Rows are coalesced server-side into batches of Config.StreamBatch
// rows, so a bulk load costs one snapshot publication per batch, not per
// row. Because the HTTP status is committed before the stream ends, a
// mid-stream fault is reported in band: one final line whose "error" field
// is set, after which the server closes the stream. Ingest acknowledges
// each applied batch with {"version","rows"} and finishes with a summary
// line {"done":true,...}; predict emits exactly one result line per input
// row, in order.
package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Code is a machine-readable error class carried in the error envelope.
// Codes are the protocol's stable vocabulary: clients branch on them (the
// retry policy keys off CodeOverloaded), operators grep for them, and each
// maps to a fixed HTTP status.
type Code string

const (
	// CodeInvalidRequest: the request parsed but violates the contract
	// (wrong arity, class out of range, empty batch, NaN feature…). 400.
	CodeInvalidRequest Code = "invalid_request"
	// CodeMalformedBody: the body is not the JSON shape the endpoint
	// expects — syntax errors, wrong types, unknown fields. 400.
	CodeMalformedBody Code = "malformed_body"
	// CodeUnsupportedMedia: the Content-Type is not acceptable. 415.
	CodeUnsupportedMedia Code = "unsupported_media_type"
	// CodeMethodNotAllowed: wrong HTTP method for the route. 405.
	CodeMethodNotAllowed Code = "method_not_allowed"
	// CodeNotFound: unknown route, or a lookup with no interned items. 404.
	CodeNotFound Code = "not_found"
	// CodeBodyTooLarge: the body exceeded Config.MaxBodyBytes (or one
	// stream row exceeded Config.MaxRowBytes). 413.
	CodeBodyTooLarge Code = "body_too_large"
	// CodeOverloaded: admission control rejected the request — in-flight
	// and queue slots are all taken. Retry after the hinted delay. 429.
	CodeOverloaded Code = "overloaded"
	// CodeUnavailable: the server can no longer accept this request class —
	// closed, or the write-ahead log failed sticky. Reads may still work. 503.
	CodeUnavailable Code = "unavailable"
	// CodeReadOnly: the server is in degraded read-only mode — a storage
	// fault stopped the write plane while reads keep serving. Writes are
	// worth retrying after the hinted delay (the degraded server may
	// auto-recover); reads are unaffected. 503 with Retry-After.
	CodeReadOnly Code = "read_only"
	// CodeDeadlineExceeded: the request's server-side deadline expired
	// before the work ran (typically while queued behind a slow disk or a
	// saturated gate). The request was NOT applied. 504.
	CodeDeadlineExceeded Code = "deadline_exceeded"
	// CodeInternal: a fault on the server side that is not the client's
	// doing. 500.
	CodeInternal Code = "internal"
	// CodeNotPrimary: a write (or a replication connection) reached a
	// follower that knows where the primary is. The envelope carries
	// primary_url; clients fail the request over there instead of
	// retrying here. 421.
	CodeNotPrimary Code = "not_primary"
	// CodeFollowerReadOnly: a write reached a follower that does NOT know
	// its primary (mid-failover, or a follower started without
	// -primary-url). The write is worth retrying after the hinted delay —
	// a promotion or reconfiguration may land; reads are unaffected. 503
	// with Retry-After.
	CodeFollowerReadOnly Code = "follower_read_only"
	// CodeStaleSeq: a replication stream asked for a from_seq the primary
	// cannot serve as a log suffix — the follower is ahead of the
	// primary's head (diverged) or a checkpoint seed could not be
	// produced. The follower must re-seed from a checkpoint (reconnect
	// with from_seq 0 to request one). 409.
	CodeStaleSeq Code = "stale_seq"
	// CodeWrongShard: a write carried a class or item key this shard does
	// not own under the cluster manifest. The envelope names the offending
	// key and carries the owning shard's endpoints (owner_shard,
	// owner_primary_url, owner_replica_urls) so clients reroute instead of
	// retrying here — the shard-tier analogue of CodeNotPrimary, and like
	// it the request was NOT applied (ownership is validated before any
	// row is buffered). 421.
	CodeWrongShard Code = "wrong_shard"
)

// Error is the structured fault both halves of the protocol share: the
// body of every non-2xx JSON response, and the error type the client
// returns for server-reported faults. It implements error.
type Error struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS hints when a CodeOverloaded request is worth retrying,
	// mirroring the Retry-After header (which is whole seconds only).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// PrimaryURL accompanies CodeNotPrimary: the base URL of the primary
	// this follower replicates from, for client-side failover.
	PrimaryURL string `json:"primary_url,omitempty"`
	// OwnerShard, OwnerPrimaryURL and OwnerReplicaURLs accompany
	// CodeWrongShard: the shard that owns the misrouted key and its
	// endpoints under this server's manifest, for client-side rerouting.
	OwnerShard       *int     `json:"owner_shard,omitempty"`
	OwnerPrimaryURL  string   `json:"owner_primary_url,omitempty"`
	OwnerReplicaURLs []string `json:"owner_replica_urls,omitempty"`
}

// Error renders the fault as "code: message".
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// HTTPStatus maps the error code to its fixed HTTP status.
func (e *Error) HTTPStatus() int {
	switch e.Code {
	case CodeInvalidRequest, CodeMalformedBody:
		return http.StatusBadRequest
	case CodeUnsupportedMedia:
		return http.StatusUnsupportedMediaType
	case CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case CodeNotFound:
		return http.StatusNotFound
	case CodeBodyTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeOverloaded:
		return http.StatusTooManyRequests
	case CodeUnavailable, CodeReadOnly, CodeFollowerReadOnly:
		return http.StatusServiceUnavailable
	case CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	case CodeNotPrimary, CodeWrongShard:
		return http.StatusMisdirectedRequest
	case CodeStaleSeq:
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// Errorf builds an Error from a format string.
func Errorf(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// envelope is the non-2xx response body.
type envelope struct {
	Error *Error `json:"error"`
}

// DecodeError turns a non-2xx response body into its *Error. A body that
// is not an envelope (a proxy in the way, a panic page) yields a
// synthesized CodeInternal error quoting the body's start.
func DecodeError(body io.Reader, status int) *Error {
	raw, _ := io.ReadAll(io.LimitReader(body, 64<<10))
	var env envelope
	if json.Unmarshal(raw, &env) == nil && env.Error != nil && env.Error.Code != "" {
		return env.Error
	}
	return Errorf(CodeInternal, "HTTP %d with non-envelope body: %.200s", status, raw)
}

// ---------------------------------------------------------------------------
// Unary request/response types
// ---------------------------------------------------------------------------

// Sample is one labeled feature record in a TrainRequest.
type Sample struct {
	Label    int       `json:"label"`
	Features []float64 `json:"features"`
}

// TrainRequest is one write batch: labeled samples to train on plus item
// symbols to intern, applied atomically as one snapshot publication.
type TrainRequest struct {
	Samples []Sample `json:"samples,omitempty"`
	Symbols []string `json:"symbols,omitempty"`
}

// TrainResponse acknowledges an applied write batch.
type TrainResponse struct {
	Version uint64 `json:"version"`
	Trained int    `json:"trained"`
	Samples uint64 `json:"samples"`
	Items   int    `json:"items"`
}

// PredictRequest classifies a batch of feature records against one
// consistent snapshot.
type PredictRequest struct {
	Queries [][]float64 `json:"queries"`
}

// PredictResponse carries one class and normalized distance per query, in
// request order, plus the snapshot version that served them all.
type PredictResponse struct {
	Version   uint64    `json:"version"`
	Classes   []int     `json:"classes"`
	Distances []float64 `json:"distances"`
}

// ScoresRequest asks for each query's raw Hamming distance to every class
// prototype, all against one consistent snapshot. This is the scatter half
// of cross-process scatter-gather predict: a cluster client fans the same
// queries to every shard, keeps each shard's owned-class distances, and
// merges with the exact integer tie-break — bit-identical to an unsharded
// Predict. (Predict's float64 distance cannot be merged exactly; integers
// can.)
type ScoresRequest struct {
	Queries [][]float64 `json:"queries"`
}

// ScoresResponse carries one distance row per query, in request order.
// Distances[i][c] is query i's raw Hamming distance to the prototype of
// global class c. Classes a shard does not own still appear (their
// prototypes are untrained tie vectors); callers must select by ownership.
type ScoresResponse struct {
	Version   uint64  `json:"version"`
	Dim       int     `json:"dim"`
	Classes   int     `json:"classes"`
	Distances [][]int `json:"distances"`
}

// ClusterShard is one shard group's endpoint set in a ClusterResponse.
type ClusterShard struct {
	Primary  string   `json:"primary"`
	Replicas []string `json:"replicas,omitempty"`
}

// ClusterResponse is the GET /v1/cluster body: the manifest this node was
// booted with, so clients self-configure from any single endpoint and
// refresh on topology change (adopting a manifest only when its version is
// newer). Shard is the index this node serves. The route answers 404 on a
// node running outside any cluster.
type ClusterResponse struct {
	ManifestVersion uint64         `json:"manifest_version"`
	RingPositions   int            `json:"ring_positions"`
	RingDim         int            `json:"ring_dim"`
	RingSeed        uint64         `json:"ring_seed"`
	Shards          []ClusterShard `json:"shards"`
	Shard           int            `json:"shard"`
}

// PromoteResponse acknowledges POST /v1/admin/promote: the node's role
// after the call ("primary"; promotion is idempotent) and the version its
// model stands at. The route exists only when the operator opted in
// (Config.EnableAdmin / hdcserve -admin) and answers 404 otherwise.
type PromoteResponse struct {
	Role    string `json:"role"`
	Version uint64 `json:"version"`
}

// LookupRequest is the POST /v1/lookup body: nearest-symbol cleanup of one
// encoded feature record.
type LookupRequest struct {
	Features []float64 `json:"features"`
}

// LookupResponse answers all three lookup surfaces; which fields are set
// depends on the question asked (key routing, symbol membership, cleanup).
type LookupResponse struct {
	// Key-routing fields (GET ?key=).
	Key    string `json:"key,omitempty"`
	Shard  *int   `json:"shard,omitempty"`
	Member string `json:"member,omitempty"`
	Slot   *int   `json:"slot,omitempty"`
	// Cleanup fields (POST features / GET ?symbol=).
	Symbol     string  `json:"symbol,omitempty"`
	Similarity float64 `json:"similarity,omitempty"`
	Found      *bool   `json:"found,omitempty"`
	Version    uint64  `json:"version"`
}

// HealthResponse is the GET /v1/healthz body. Status is "ok" on a healthy
// server, "degraded" when a storage fault stopped the write plane (reads
// keep serving; Reason and DegradedSince say why and since when), and
// "closed" after shutdown began. The route answers 200 regardless — a
// degraded node is a HEALTHY read replica — unless the probe asks about
// the write plane (?plane=write), which answers 503 for anything but "ok"
// so write-routing load balancers drain the node.
type HealthResponse struct {
	Status        string    `json:"status"`
	Version       uint64    `json:"version"`
	Reason        string    `json:"reason,omitempty"`
	DegradedSince time.Time `json:"degraded_since,omitzero"`
}

// ---------------------------------------------------------------------------
// Streaming row types
// ---------------------------------------------------------------------------

// IngestRow is one NDJSON line of POST /v1/ingest:stream: either a labeled
// training sample (Label + Features) or an item symbol to intern (Symbol).
// A row carrying both trains and interns in the same coalesced batch.
type IngestRow struct {
	Label    *int      `json:"label,omitempty"`
	Features []float64 `json:"features,omitempty"`
	Symbol   string    `json:"symbol,omitempty"`
}

// IngestAck is one NDJSON line of the ingest response: an acknowledgment
// per applied batch (Version, Rows), then a final summary line with Done
// set (TotalRows, Batches). A mid-stream fault sets Error on the last line
// instead; rows not covered by an earlier ack were not applied.
type IngestAck struct {
	Version   uint64 `json:"version,omitempty"`
	Rows      int    `json:"rows,omitempty"`
	Done      bool   `json:"done,omitempty"`
	TotalRows int    `json:"total_rows,omitempty"`
	Batches   int    `json:"batches,omitempty"`
	Error     *Error `json:"error,omitempty"`
}

// PredictRow is one NDJSON line of POST /v1/predict:stream.
type PredictRow struct {
	Features []float64 `json:"features"`
}

// PredictResult is one NDJSON line of the predict-stream response: exactly
// one per input row, in input order. A mid-stream fault terminates the
// stream with a line whose Error field is set.
type PredictResult struct {
	Class    int     `json:"class"`
	Distance float64 `json:"distance"`
	Version  uint64  `json:"version"`
	Error    *Error  `json:"error,omitempty"`
}

// ---------------------------------------------------------------------------
// Replication wire contract (POST /v1/replicate:stream)
// ---------------------------------------------------------------------------

// ReplicateRequest is the first NDJSON line of the replicate-stream
// request body: the follower announces where its applied history ends.
// FromSeq is the first sequence it needs (applied version + 1; 0 and 1
// both mean "from the beginning"). The primary answers with a catch-up
// plan it chooses: a log suffix when FromSeq is still retained, or an
// in-band checkpoint seed first when compaction has passed it.
type ReplicateRequest struct {
	FromSeq uint64 `json:"from_seq"`
}

// ReplicateAck is every subsequent NDJSON line of the request body (the
// stream is duplex): the follower's durable-apply progress, used by the
// primary for lag accounting and surfaced in Stats.
type ReplicateAck struct {
	AckedSeq uint64 `json:"acked_seq"`
}

// ReplicateFrame is one NDJSON line of the replicate-stream response.
// Exactly one of the three frame kinds is set:
//
//   - record: Seq > 0. Payload is the verbatim WAL record (base64 in
//     JSON), CRC echoes the on-disk record checksum
//     (wal.RecordCRC(seq, payload)) so the follower verifies the exact
//     bytes end to end before applying.
//   - checkpoint seed: Checkpoint non-empty — a whole checkpoint image
//     (the HCKP file format) at CheckpointVersion. The follower installs
//     it and the stream continues at CheckpointVersion+1.
//   - heartbeat: Heartbeat true. Keeps the connection verified live while
//     the primary is idle and carries the head position for lag tracking.
//
// Every frame kind carries HeadSeq, the primary's newest appended
// sequence, so follower lag (HeadSeq − applied version) is continuously
// observable. A terminal fault is a frame whose Error is set, after which
// the primary closes the stream.
type ReplicateFrame struct {
	Seq     uint64 `json:"seq,omitempty"`
	Payload []byte `json:"payload,omitempty"`
	CRC     uint32 `json:"crc,omitempty"`

	Checkpoint        []byte `json:"checkpoint,omitempty"`
	CheckpointVersion uint64 `json:"checkpoint_version,omitempty"`

	Heartbeat bool `json:"heartbeat,omitempty"`

	HeadSeq uint64 `json:"head_seq,omitempty"`
	Error   *Error `json:"error,omitempty"`
}

// ReplicationStream is one follower's live shipping session, produced by
// a ReplicationSource. Next blocks until the next frame is due (record,
// checkpoint seed, or heartbeat) and is called from a single goroutine;
// Ack may be called concurrently from the request-body reader. Close
// releases the session (idempotent).
type ReplicationStream interface {
	Next(ctx context.Context) (ReplicateFrame, error)
	Ack(seq uint64)
	Close() error
}

// ReplicationSource is the primary-side shipper behind the replicate
// endpoint — implemented by internal/repl.Source and injected through
// Config.Replication, so the wire layer never depends on the replication
// engine. Stream validates the follower's request and opens a session;
// a request the source cannot serve returns an *Error (e.g.
// CodeStaleSeq).
type ReplicationSource interface {
	Stream(ctx context.Context, req ReplicateRequest) (ReplicationStream, error)
}
