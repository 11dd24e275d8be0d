// Package client is the Go SDK for serving protocol v1 (the HTTP API
// internal/httpapi defines and cmd/hdcserve hosts). It shares the wire
// types with the server — they cannot drift — and adds what a production
// caller needs on top of raw HTTP: connection reuse, retry with
// exponential backoff on overload and transient faults, NDJSON streaming
// for bulk ingest and bulk prediction, and client-side batch coalescing
// for high-fan-in callers.
//
//	c, _ := client.New("http://localhost:8080")
//	res, err := c.Predict(ctx, [][]float64{{0.2, 0.7, 0.1}})
//
// # Replicated tiers
//
// A client may know a whole serving tier, not just one server: declare
// read replicas with WithReplicas and pick a routing policy with
// WithReadPreference.
//
//	c, _ := client.New("http://primary:8080",
//		client.WithReplicas("http://r1:8080", "http://r2:8080"),
//		client.WithReadPreference(client.BoundedStaleness(64)))
//
// Writes (Train, Ingest) always target the current primary. Reads route
// per the preference — Primary (the default; single-server behavior),
// NearestReplica (lowest observed latency), or BoundedStaleness(maxLag)
// (replicas within maxLag sequence numbers, per their own stats) — and
// fail over across endpoints within one call. When a write lands on a
// node that answers not_primary with a redirect hint (the tier failed
// over), the client adopts the hinted primary and retries; PrimaryURL
// reports the current target. Each endpoint keeps its own circuit
// breaker and latency/lag observations.
//
// # Errors
//
// Faults the server reports come back as *client.Error (the protocol's
// structured envelope): branch on the machine-readable Code, e.g.
//
//	var apiErr *client.Error
//	if errors.As(err, &apiErr) && apiErr.Code == client.CodeInvalidRequest { … }
//
// # Retries
//
// Every call makes its attempts through one loop: at most WithRetry
// attempts, with at most WithRetryBudget of backoff sleep between them. A
// backoff is the server's Retry-After hint when the last answer carried
// one, and exponential from the WithRetry base otherwise. The call's kind
// and the answer's HTTP status decide the next step; an error page that is
// not the protocol's envelope (a proxy's, say) is judged by its status too,
// and surfaces as an *Error with code internal.
//
//	answer                             read       write       ingest open
//	200                                done       done        done
//	429 overloaded                     backoff    backoff     backoff
//	503 read_only, unavailable or      next node  fail        backoff
//	    follower_read_only
//	other 5xx, or no answer at all     next node  fail        fail
//	421 not_primary with a new hint    adopt      adopt       adopt
//	anything else                      fail       fail        fail
//
// Reads are the unary reads (Predict, Scores, Cleanup, RouteKey,
// HasSymbol, Cluster, Stats, Health), Snapshot, and opening a
// PredictStream. Each attempt goes to the next read-preference candidate;
// "next node" tries it at once while an untried one remains, and after a
// backoff once none does. Writes (Train, Promote) and ingest opens go to
// the current primary. A 429 was never admitted, so replaying it cannot
// double-apply; a write that died on a 5xx or mid-flight may have been
// applied, so it is not replayed. A stream open withholds its rows until
// the server accepts it (Expect: 100-continue): a refused ingest open sent
// nothing, so its write-plane 503s retry as well.
// "Adopt" makes the hinted node the primary and retries at once; a
// not_primary without a new hint fails. An established stream is never
// retried: its acks tell the caller how far the server got.
// WithCallTimeout bounds each unary call, all its attempts included.
//
// # Degraded servers and the circuit breaker
//
// A server whose write-ahead log failed degrades to read-only: reads keep
// working, writes answer 503 with code read_only and a Retry-After hint.
// The client's circuit breaker (WithCircuitBreaker; on by default) counts
// those consecutive write-plane 503s on writes and ingest opens and, past
// the threshold, fails them fast with ErrCircuitOpen instead of dialing a
// server that cannot accept them; any write the server accepts resets the
// count. After the cooldown the next write probes GET /v1/healthz
// ?plane=write — recovered server, circuit closes; still degraded,
// another cooldown. Reads never pass through the breaker.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"hdcirc/internal/httpapi"
)

// Wire types, re-exported so callers need only this package. They are the
// same types the server marshals — protocol v1 has one definition.
type (
	// Error is the structured fault envelope every non-2xx response carries.
	Error = httpapi.Error
	// Code is the machine-readable error class inside an Error.
	Code = httpapi.Code
	// Sample is one labeled feature record in a TrainRequest.
	Sample = httpapi.Sample
	// TrainRequest is one write batch (samples to train, symbols to intern).
	TrainRequest = httpapi.TrainRequest
	// TrainResponse acknowledges an applied write batch.
	TrainResponse = httpapi.TrainResponse
	// PredictResponse carries classes and distances in query order.
	PredictResponse = httpapi.PredictResponse
	// LookupResponse answers key routing, symbol membership and cleanup.
	LookupResponse = httpapi.LookupResponse
	// StatsResponse is the operational summary incl. durability state.
	StatsResponse = httpapi.StatsResponse
	// HealthResponse is the liveness probe body.
	HealthResponse = httpapi.HealthResponse
	// IngestRow is one bulk-ingest NDJSON row (train sample and/or symbol).
	IngestRow = httpapi.IngestRow
	// IngestAck acknowledges applied ingest batches and summarizes the stream.
	IngestAck = httpapi.IngestAck
	// PredictRow is one bulk-predict NDJSON query row.
	PredictRow = httpapi.PredictRow
	// PredictResult is one bulk-predict NDJSON result row.
	PredictResult = httpapi.PredictResult
	// ScoresResponse carries raw per-class Hamming distances per query —
	// the scatter half of cluster scatter-gather predict.
	ScoresResponse = httpapi.ScoresResponse
	// ClusterResponse is a node's view of its cluster manifest.
	ClusterResponse = httpapi.ClusterResponse
	// ClusterShard is one shard group's endpoints in a ClusterResponse.
	ClusterShard = httpapi.ClusterShard
	// PromoteResponse acknowledges an admin promotion.
	PromoteResponse = httpapi.PromoteResponse
)

// Error codes, re-exported from the protocol.
const (
	CodeInvalidRequest   = httpapi.CodeInvalidRequest
	CodeMalformedBody    = httpapi.CodeMalformedBody
	CodeUnsupportedMedia = httpapi.CodeUnsupportedMedia
	CodeMethodNotAllowed = httpapi.CodeMethodNotAllowed
	CodeNotFound         = httpapi.CodeNotFound
	CodeBodyTooLarge     = httpapi.CodeBodyTooLarge
	CodeOverloaded       = httpapi.CodeOverloaded
	CodeUnavailable      = httpapi.CodeUnavailable
	CodeReadOnly         = httpapi.CodeReadOnly
	CodeDeadlineExceeded = httpapi.CodeDeadlineExceeded
	CodeInternal         = httpapi.CodeInternal
	CodeNotPrimary       = httpapi.CodeNotPrimary
	CodeFollowerReadOnly = httpapi.CodeFollowerReadOnly
	CodeStaleSeq         = httpapi.CodeStaleSeq
	CodeWrongShard       = httpapi.CodeWrongShard
)

// Client talks protocol v1 to a serving tier: one primary, plus any read
// replicas declared with WithReplicas. It is safe for concurrent use; the
// underlying transport pools and reuses connections per host. Writes
// always target the current primary (following not_primary redirects
// after a failover); reads route per the WithReadPreference policy.
type Client struct {
	hc          *http.Client
	maxAttempts int           // total tries per retryable call
	baseDelay   time.Duration // first backoff step, doubled per attempt
	maxDelay    time.Duration // backoff ceiling
	retryBudget time.Duration // total backoff sleep allowed per call; 0 = unbounded
	callTimeout time.Duration // per-call deadline layered under the caller's ctx; 0 = none
	streamBatch int           // client-side rows per buffered stream write

	// Breaker template, stamped into every endpoint (each node's write
	// plane degrades independently, so each gets its own circuit).
	brThreshold int
	brCooldown  time.Duration

	replicaURLs []string // raw WithReplicas arguments; resolved in New
	pref        ReadPreference

	mu       sync.Mutex
	primary  *endpoint
	replicas []*endpoint
	eps      map[string]*endpoint // every endpoint ever known, by base URL
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying *http.Client (timeouts, proxies,
// TLS). The default client has no global timeout — per-call contexts bound
// each request — and pools connections per host.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry sets the retry budget: total attempts per retryable call and
// the first backoff delay (doubled each attempt, capped at 16×base).
// attempts <= 1 disables retries.
func WithRetry(attempts int, base time.Duration) Option {
	return func(c *Client) {
		c.maxAttempts = attempts
		if base > 0 {
			c.baseDelay = base
			c.maxDelay = 16 * base
		}
	}
}

// WithRetryBudget caps the total time one call may spend sleeping between
// retry attempts, on top of the attempt count: when the next backoff step
// would exceed the budget the call gives up with the last fault attached.
// 0 (the default) leaves backoff bounded only by the attempt count.
func WithRetryBudget(total time.Duration) Option {
	return func(c *Client) { c.retryBudget = total }
}

// WithCallTimeout bounds every unary call (all its attempts and backoff
// together) with a deadline layered under the caller's context. 0 (the
// default) leaves calls bounded only by the caller's context.
func WithCallTimeout(d time.Duration) Option {
	return func(c *Client) { c.callTimeout = d }
}

// WithCircuitBreaker tunes the write-plane circuit breaker: after
// threshold consecutive write-plane 503s (read_only / unavailable)
// writes fail fast with ErrCircuitOpen, and after cooldown the next
// write probes healthz ?plane=write to decide whether to close the
// circuit. threshold <= 0 disables the breaker. The default is 5
// failures, 1s cooldown.
func WithCircuitBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *Client) {
		if cooldown <= 0 {
			cooldown = time.Second
		}
		c.brThreshold, c.brCooldown = threshold, cooldown
	}
}

// WithStreamBatch sets how many NDJSON rows the streaming helpers buffer
// client-side before hitting the socket (write coalescing; the server
// batches independently per its own StreamBatch).
func WithStreamBatch(rows int) Option {
	return func(c *Client) {
		if rows > 0 {
			c.streamBatch = rows
		}
	}
}

// New builds a client for the serving tier whose primary is at baseURL
// (scheme://host[:port], with or without a trailing slash). Add read
// replicas with WithReplicas and pick how reads route with
// WithReadPreference; with neither, the client behaves exactly as the
// single-server client always has.
func New(baseURL string, opts ...Option) (*Client, error) {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 32 // high-fan-in callers reuse, not re-dial
	c := &Client{
		hc:          &http.Client{Transport: t},
		maxAttempts: 4,
		baseDelay:   100 * time.Millisecond,
		maxDelay:    1600 * time.Millisecond,
		streamBatch: 256,
		brThreshold: 5,
		brCooldown:  time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	if c.maxAttempts < 1 {
		c.maxAttempts = 1
	}
	// Endpoints are built after the options ran so each breaker is stamped
	// from the final WithCircuitBreaker configuration.
	base, err := normalizeBase(baseURL)
	if err != nil {
		return nil, err
	}
	c.eps = make(map[string]*endpoint, 1+len(c.replicaURLs))
	c.primary = c.newEndpoint(base)
	c.eps[base] = c.primary
	for _, raw := range c.replicaURLs {
		rb, err := normalizeBase(raw)
		if err != nil {
			return nil, err
		}
		if _, dup := c.eps[rb]; dup {
			continue // the primary, or a replica listed twice
		}
		ep := c.newEndpoint(rb)
		c.eps[rb] = ep
		c.replicas = append(c.replicas, ep)
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// Typed endpoint methods
// ---------------------------------------------------------------------------

// Train applies one write batch and returns the server's acknowledgment.
// Not retried on transport faults or 5xx (the batch may have applied);
// overload rejections are retried.
func (c *Client) Train(ctx context.Context, req TrainRequest) (*TrainResponse, error) {
	var out TrainResponse
	if err := c.do(ctx, http.MethodPost, "/v1/train", req, &out, writeCall); err != nil {
		return nil, err
	}
	return &out, nil
}

// Predict classifies a batch of feature records against one consistent
// server snapshot. Fully retryable.
func (c *Client) Predict(ctx context.Context, queries [][]float64) (*PredictResponse, error) {
	var out PredictResponse
	if err := c.do(ctx, http.MethodPost, "/v1/predict", httpapi.PredictRequest{Queries: queries}, &out, readCall); err != nil {
		return nil, err
	}
	return &out, nil
}

// PredictOne classifies a single record.
func (c *Client) PredictOne(ctx context.Context, features []float64) (class int, distance float64, err error) {
	res, err := c.Predict(ctx, [][]float64{features})
	if err != nil {
		return 0, 0, err
	}
	return res.Classes[0], res.Distances[0], nil
}

// RouteKey asks the server's consistent-hashing ring which shard serves an
// arbitrary key.
func (c *Client) RouteKey(ctx context.Context, key string) (*LookupResponse, error) {
	var out LookupResponse
	path := "/v1/lookup?key=" + url.QueryEscape(key)
	if err := c.do(ctx, http.MethodGet, path, nil, &out, readCall); err != nil {
		return nil, err
	}
	return &out, nil
}

// HasSymbol reports whether a symbol is interned in the item memory.
func (c *Client) HasSymbol(ctx context.Context, symbol string) (found bool, version uint64, err error) {
	var out LookupResponse
	path := "/v1/lookup?symbol=" + url.QueryEscape(symbol)
	if err := c.do(ctx, http.MethodGet, path, nil, &out, readCall); err != nil {
		return false, 0, err
	}
	return out.Found != nil && *out.Found, out.Version, nil
}

// Cleanup runs nearest-symbol cleanup on a feature record: the interned
// symbol most similar to its encoding, with the similarity.
func (c *Client) Cleanup(ctx context.Context, features []float64) (*LookupResponse, error) {
	var out LookupResponse
	if err := c.do(ctx, http.MethodPost, "/v1/lookup", httpapi.LookupRequest{Features: features}, &out, readCall); err != nil {
		return nil, err
	}
	return &out, nil
}

// Scores fetches each query's raw per-class Hamming distances against one
// consistent server snapshot — the scatter half of cluster scatter-gather
// predict (integer distances merge exactly across shards; Predict's
// float64 distances would not). Fully retryable, routed per the read
// preference.
func (c *Client) Scores(ctx context.Context, queries [][]float64) (*ScoresResponse, error) {
	var out ScoresResponse
	if err := c.do(ctx, http.MethodPost, "/v1/scores", httpapi.ScoresRequest{Queries: queries}, &out, readCall); err != nil {
		return nil, err
	}
	return &out, nil
}

// Cluster fetches the node's cluster manifest (GET /v1/cluster), the
// bootstrap and refresh surface of cluster clients. A node running
// outside a sharded cluster answers not_found.
func (c *Client) Cluster(ctx context.Context) (*ClusterResponse, error) {
	var out ClusterResponse
	if err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, &out, readCall); err != nil {
		return nil, err
	}
	return &out, nil
}

// Promote asks this client's primary endpoint to become the primary of
// its replication group (POST /v1/admin/promote; the server must run with
// admin routes enabled). Point a dedicated client at the replica being
// promoted — the call deliberately does NOT route across replicas, since
// promotion targets one specific node. The caller is responsible for
// making sure the old primary is dead or demoted first.
func (c *Client) Promote(ctx context.Context) (*PromoteResponse, error) {
	var out PromoteResponse
	if err := c.do(ctx, http.MethodPost, "/v1/admin/promote", nil, &out, writeCall); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the operational summary, including the durability fields
// (WAL sequence, checkpoint version, segment count, sticky error state).
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var out StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out, readCall); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health probes liveness and returns the current snapshot version.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	var out HealthResponse
	if err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &out, readCall); err != nil {
		return nil, err
	}
	return &out, nil
}

// Snapshot streams the server's binary snapshot into w and returns the
// snapshot version. The bytes warm-start a replacement server (hdcserve
// -load, or Server.Restore). A read, routed per the read preference and
// retried like the unary reads, but only until the first body byte reaches
// w: a partially copied image cannot be replayed into the same writer.
func (c *Client) Snapshot(ctx context.Context, w io.Writer) (version uint64, err error) {
	err = c.call(ctx, readCall, "/v1/snapshot", func(ctx context.Context, ep *endpoint) (int, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep.base+"/v1/snapshot", nil)
		if err != nil {
			return 0, err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return 0, fmt.Errorf("client: snapshot: %w", err)
		}
		defer drain(resp)
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, httpapi.DecodeError(resp.Body, resp.StatusCode)
		}
		if version, err = strconv.ParseUint(resp.Header.Get("X-Snapshot-Version"), 10, 64); err != nil {
			return resp.StatusCode, fmt.Errorf("client: snapshot: bad X-Snapshot-Version header: %w", err)
		}
		n, err := io.Copy(w, resp.Body)
		switch {
		case err == nil:
			return resp.StatusCode, nil
		case n > 0:
			return resp.StatusCode, fmt.Errorf("client: snapshot: reading body after %d bytes: %w", n, err)
		}
		// Nothing reached w: as retryable as a connection that died.
		return 0, fmt.Errorf("client: snapshot: reading body: %w", err)
	})
	if err != nil {
		return 0, err
	}
	return version, nil
}

// ---------------------------------------------------------------------------
// Transport core: one attempt loop, one JSON round trip
// ---------------------------------------------------------------------------

// callKind tells the attempt loop where a call goes and what it may retry
// (the table in the package comment).
type callKind uint8

const (
	readCall  callKind = iota // walks the read-preference candidates
	writeCall                 // the current primary, through its breaker
	openCall                  // an ingest open: a write whose write-plane 503s retry
)

// attemptFunc makes one attempt at a call against ep. On failure status is
// the HTTP status ep answered with, or 0 when no answer arrived.
type attemptFunc func(ctx context.Context, ep *endpoint) (status int, err error)

// call runs one call's attempts. It owns everything between them: the
// endpoint of each attempt, the primary's breaker, not_primary adoption,
// the retry decision, and the backoff sleep within the retry budget. path
// names the call in the errors it gives up with.
func (c *Client) call(ctx context.Context, kind callKind, path string, attempt attemptFunc) error {
	var candidates []*endpoint
	if kind == readCall {
		candidates = c.readCandidates(ctx)
	}
	var (
		lastErr error
		slept   time.Duration
		sleep   bool // back off before the next attempt
	)
	for n := 0; n < c.maxAttempts; n++ {
		if sleep {
			d := c.backoff(lastErr, n)
			if c.retryBudget > 0 && slept+d > c.retryBudget {
				return fmt.Errorf("client: %s: retry budget %v exhausted after %d attempts: %w", path, c.retryBudget, n, lastErr)
			}
			if err := sleepCtx(ctx, d); err != nil {
				return err
			}
			slept += d
		}
		var ep *endpoint
		if kind == readCall {
			ep = candidates[n%len(candidates)]
		} else {
			ep = c.primaryEndpoint()
			if err := ep.br.allow(ctx, c, ep.base); err != nil {
				return err
			}
		}
		status, err := attempt(ctx, ep)
		if err == nil {
			if kind != readCall {
				ep.br.success()
			}
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = err
		var e *Error
		errors.As(err, &e) // e stays nil unless the node answered with an *Error
		// Transport faults never feed the breaker: a dead connection says
		// nothing about the write plane's health.
		if kind != readCall && writePlaneFault(e) {
			ep.br.failure()
		}
		switch {
		case e != nil && e.Code == CodeNotPrimary:
			// The refused request was never admitted, so it goes straight
			// to the hinted primary; no hint, or one already adopted,
			// leaves nothing to try.
			if e.PrimaryURL == "" || !c.adoptPrimary(e.PrimaryURL) {
				return err
			}
			if kind == readCall {
				candidates = c.readCandidates(ctx)
			}
			sleep = false
		case status == http.StatusTooManyRequests:
			sleep = true // rejected before admission: replay cannot double-apply
		case kind == readCall && (status == 0 || status >= 500):
			// This node is unhealthy; the next candidate may not be.
			sleep = n+1 >= len(candidates)
		case kind == openCall && writePlaneFault(e):
			sleep = true // a refused open sent no row
		default:
			return err
		}
	}
	return fmt.Errorf("client: %s: giving up after %d attempts: %w", path, c.maxAttempts, lastErr)
}

// do runs one unary call: it marshals in once and makes each attempt a
// roundTrip, under the WithCallTimeout deadline. Only unary reads feed
// the endpoint's latency average.
func (c *Client) do(ctx context.Context, method, path string, in, out any, kind callKind) error {
	if c.callTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.callTimeout)
		defer cancel()
	}
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	return c.call(ctx, kind, path, func(ctx context.Context, ep *endpoint) (int, error) {
		start := time.Now()
		status, err := c.roundTrip(ctx, method, ep.base+path, body, out)
		if err == nil && kind == readCall {
			ep.observeRTT(time.Since(start))
		}
		return status, err
	})
}

// roundTrip makes one JSON request and decodes a 200 answer into out (nil
// discards it). It returns the answer's HTTP status, 0 when none arrived,
// and the fault: the transport error, the answer's error envelope, or a
// failed decode. It is do's attempt, and the lag and write-plane probes.
func (c *Client) roundTrip(ctx context.Context, method, target string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, target, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("client: %w", err) // a *url.Error: it names method and URL
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, httpapi.DecodeError(resp.Body, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("client: decoding %s response: %w", target, err)
		}
	}
	return resp.StatusCode, nil
}

// backoff picks the delay before retry number attempt: the server's
// Retry-After hint EXACTLY when the last fault carried one (the server
// knows its own drain rate; padding the hint with local exponential
// backoff just delays recovery), exponential from baseDelay capped at
// maxDelay otherwise.
func (c *Client) backoff(lastErr error, attempt int) time.Duration {
	var apiErr *Error
	if errors.As(lastErr, &apiErr) && apiErr.RetryAfterMS > 0 {
		return time.Duration(apiErr.RetryAfterMS) * time.Millisecond
	}
	d := c.baseDelay << (attempt - 1)
	if d > c.maxDelay {
		d = c.maxDelay
	}
	return d
}

// sleepCtx waits d or until the context dies.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// drain discards any unread body so the connection returns to the pool.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
