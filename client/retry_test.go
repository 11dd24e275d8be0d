package client

// The retry contract as one table: every call kind against every class of
// answer a node can give. In each row the first node the call targets
// answers once with the row's fault; every later request, and every
// request to another node, gets a canned 200. The row then records where
// the attempts went, whether the client slept a backoff between them, the
// original primary's breaker count, whether a hinted primary was adopted,
// and how the call ended.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// retryNode is a counting protocol-v1 stand-in. Its first request gets
// answer when one is set; everything else gets serveCanned.
type retryNode struct {
	ts     *httptest.Server
	hits   atomic.Int64
	answer func(w http.ResponseWriter)
}

func newRetryNode(t *testing.T, answer func(http.ResponseWriter)) *retryNode {
	t.Helper()
	n := &retryNode{answer: answer}
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.hits.Add(1) == 1 && n.answer != nil {
			n.answer(w)
			return
		}
		serveCanned(w, r)
	}))
	t.Cleanup(n.ts.Close)
	return n
}

// serveCanned answers every call kind the table drives with a 200. The
// stream handlers read the body first: that read is what sends the
// 100 Continue a stream open waits for.
func serveCanned(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/predict":
		json.NewEncoder(w).Encode(PredictResponse{Classes: []int{0}, Distances: []float64{0.5}})
	case "/v1/train":
		json.NewEncoder(w).Encode(TrainResponse{Version: 1, Trained: 1})
	case "/v1/snapshot":
		w.Header().Set("X-Snapshot-Version", "7")
		w.Write([]byte("image"))
	case "/v1/predict:stream":
		io.Copy(io.Discard, r.Body)
	case "/v1/ingest:stream":
		io.Copy(io.Discard, r.Body)
		json.NewEncoder(w).Encode(IngestAck{Done: true})
	}
}

// retryKind is one call kind of the table. Reads target the replica first
// (NearestReplica), writes the primary.
type retryKind struct {
	name  string
	write bool
	call  func(context.Context, *Client) error
}

var retryKinds = []retryKind{
	{"predict", false, func(ctx context.Context, c *Client) error {
		_, err := c.Predict(ctx, [][]float64{{0.1, 0.2}})
		return err
	}},
	{"snapshot", false, func(ctx context.Context, c *Client) error {
		_, err := c.Snapshot(ctx, io.Discard)
		return err
	}},
	{"predict-stream", false, func(ctx context.Context, c *Client) error {
		ps, err := c.PredictStream(ctx)
		if err != nil {
			return err
		}
		if err := ps.CloseSend(); err != nil {
			return err
		}
		if _, err := ps.Recv(); err != io.EOF {
			return fmt.Errorf("recv on an empty stream: %v", err)
		}
		return nil
	}},
	{"train", true, func(ctx context.Context, c *Client) error {
		_, err := c.Train(ctx, TrainRequest{Samples: []Sample{{Label: 0, Features: []float64{0.1, 0.2}}}})
		return err
	}},
	{"ingest", true, func(ctx context.Context, c *Client) error {
		is, err := c.Ingest(ctx)
		if err != nil {
			return err
		}
		_, err = is.Close()
		return err
	}},
}

// retryHint is the Retry-After hint of the hinted faults, and retryBase
// the client's first backoff step: both long enough that a sleep cannot
// hide in round-trip noise.
const (
	retryHint = time.Second
	retryBase = time.Second
)

func envelopeAnswer(e *Error) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) { writeEnvelope(w, e) }
}

// TestRetryTable pins what every call kind does with every answer. Each
// cell lists, in this order: requests served by the primary (P), the
// replica (R) and the hinted node (H); "slept" when a backoff ran;
// "breaker=N" for the primary's consecutive write-plane faults;
// "adopted" when the hinted node became the primary; and "ok", or the
// failed call's error code ("transport" for a fault with no response).
func TestRetryTable(t *testing.T) {
	rows := []struct {
		name   string
		answer func(hint string) func(http.ResponseWriter)
		want   [5]string // predict, snapshot, predict-stream, train, ingest
	}{
		{"200", func(string) func(http.ResponseWriter) { return nil },
			[5]string{"R1 ok", "R1 ok", "R1 ok", "P1 ok", "P1 ok"}},
		{"429 with hint", func(string) func(http.ResponseWriter) {
			return envelopeAnswer(&Error{Code: CodeOverloaded, Message: "full", RetryAfterMS: retryHint.Milliseconds()})
		}, [5]string{"P1 R1 slept ok", "P1 R1 slept ok", "P1 R1 slept ok", "P2 slept ok", "P2 slept ok"}},
		{"503 read_only", func(string) func(http.ResponseWriter) {
			return envelopeAnswer(&Error{Code: CodeReadOnly, Message: "degraded", RetryAfterMS: retryHint.Milliseconds()})
		}, [5]string{"P1 R1 ok", "P1 R1 ok", "P1 R1 ok", "P1 breaker=1 read_only", "P2 slept ok"}},
		{"503 unavailable", func(string) func(http.ResponseWriter) {
			return envelopeAnswer(&Error{Code: CodeUnavailable, Message: "restarting"})
		}, [5]string{"P1 R1 ok", "P1 R1 ok", "P1 R1 ok", "P1 breaker=1 unavailable", "P2 slept ok"}},
		{"500", func(string) func(http.ResponseWriter) {
			return envelopeAnswer(&Error{Code: CodeInternal, Message: "bug"})
		}, [5]string{"P1 R1 ok", "P1 R1 ok", "P1 R1 ok", "P1 internal", "P1 internal"}},
		{"421 with new hint", func(hint string) func(http.ResponseWriter) {
			return envelopeAnswer(&Error{Code: CodeNotPrimary, Message: "demoted", PrimaryURL: hint})
		}, [5]string{"P1 R1 adopted ok", "P1 R1 adopted ok", "P1 R1 adopted ok", "P1 H1 adopted ok", "P1 H1 adopted ok"}},
		{"421 without hint", func(string) func(http.ResponseWriter) {
			return envelopeAnswer(&Error{Code: CodeNotPrimary, Message: "primary unknown"})
		}, [5]string{"R1 not_primary", "R1 not_primary", "R1 not_primary", "P1 not_primary", "P1 not_primary"}},
		{"400", func(string) func(http.ResponseWriter) {
			return envelopeAnswer(&Error{Code: CodeInvalidRequest, Message: "bad"})
		}, [5]string{"R1 invalid_request", "R1 invalid_request", "R1 invalid_request", "P1 invalid_request", "P1 invalid_request"}},
		{"transport fault", func(string) func(http.ResponseWriter) {
			return func(w http.ResponseWriter) {
				if conn, _, err := http.NewResponseController(w).Hijack(); err == nil {
					conn.Close()
				}
			}
		}, [5]string{"P1 R1 ok", "P1 R1 ok", "P1 R1 ok", "P1 transport", "P1 transport"}},
		{"502 page", func(string) func(http.ResponseWriter) {
			return func(w http.ResponseWriter) {
				w.Header().Set("Content-Type", "text/html")
				w.WriteHeader(http.StatusBadGateway)
				w.Write([]byte("<html>bad gateway</html>"))
			}
		}, [5]string{"P1 R1 ok", "P1 R1 ok", "P1 R1 ok", "P1 internal", "P1 internal"}},
	}
	for _, row := range rows {
		for k, kind := range retryKinds {
			t.Run(row.name+"/"+kind.name, func(t *testing.T) {
				t.Parallel()
				if got := retryOutcome(t, kind, row.answer); got != row.want[k] {
					t.Errorf("got %q, want %q", got, row.want[k])
				}
			})
		}
	}
}

// retryOutcome runs one call against a fresh primary, replica and hinted
// node, the first target scripted with answer, and describes what
// happened in TestRetryTable's cell notation.
func retryOutcome(t *testing.T, kind retryKind, answer func(hint string) func(http.ResponseWriter)) string {
	t.Helper()
	hinted := newRetryNode(t, nil)
	var primary, replica *retryNode
	if kind.write {
		primary, replica = newRetryNode(t, answer(hinted.ts.URL)), newRetryNode(t, nil)
	} else {
		primary, replica = newRetryNode(t, nil), newRetryNode(t, answer(hinted.ts.URL))
	}
	c, err := New(primary.ts.URL,
		WithReplicas(replica.ts.URL),
		WithReadPreference(NearestReplica),
		WithRetry(3, retryBase),
		WithCircuitBreaker(10, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = kind.call(t.Context(), c)
	slept := time.Since(start) >= retryBase/2

	var got []string
	for _, n := range []struct {
		tag  string
		node *retryNode
	}{{"P", primary}, {"R", replica}, {"H", hinted}} {
		if hits := n.node.hits.Load(); hits > 0 {
			got = append(got, fmt.Sprintf("%s%d", n.tag, hits))
		}
	}
	if slept {
		got = append(got, "slept")
	}
	br := c.eps[primary.ts.URL].br
	br.mu.Lock()
	if br.consecutive > 0 {
		got = append(got, fmt.Sprintf("breaker=%d", br.consecutive))
	}
	br.mu.Unlock()
	if c.PrimaryURL() == hinted.ts.URL {
		got = append(got, "adopted")
	}
	var apiErr *Error
	switch {
	case err == nil:
		got = append(got, "ok")
	case errors.As(err, &apiErr):
		got = append(got, string(apiErr.Code))
	default:
		t.Logf("transport fault: %v", err)
		got = append(got, "transport")
	}
	return strings.Join(got, " ")
}

// A non-envelope answer, such as a proxy's error page, is judged by its
// HTTP status, the same way for every call kind: a 429 page is retried
// after a backoff, and a 404 page ends the call.
func TestNonEnvelopeAnswerFollowsStatus(t *testing.T) {
	page := func(status int) func(string) func(http.ResponseWriter) {
		return func(string) func(http.ResponseWriter) {
			return func(w http.ResponseWriter) {
				w.Header().Set("Content-Type", "text/plain")
				w.WriteHeader(status)
				w.Write([]byte(http.StatusText(status)))
			}
		}
	}
	rows := []struct {
		status int
		want   [5]string // predict, snapshot, predict-stream, train, ingest
	}{
		{http.StatusTooManyRequests, [5]string{"P1 R1 slept ok", "P1 R1 slept ok", "P1 R1 slept ok", "P2 slept ok", "P2 slept ok"}},
		{http.StatusNotFound, [5]string{"R1 internal", "R1 internal", "R1 internal", "P1 internal", "P1 internal"}},
	}
	for _, row := range rows {
		for k, kind := range retryKinds {
			t.Run(fmt.Sprintf("%d/%s", row.status, kind.name), func(t *testing.T) {
				t.Parallel()
				if got := retryOutcome(t, kind, page(row.status)); got != row.want[k] {
					t.Errorf("got %q, want %q", got, row.want[k])
				}
			})
		}
	}
}

// An ingest open that succeeds resets the write-plane breaker, like every
// write the server accepts: the read_only refusal it retried through no
// longer counts toward tripping.
func TestIngestOpenSuccessResetsBreaker(t *testing.T) {
	var opens, trains atomic.Int64
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		refuse := false
		switch r.URL.Path {
		case "/v1/ingest:stream":
			refuse = opens.Add(1) == 1
		case "/v1/train":
			refuse = trains.Add(1) == 1
		}
		if refuse {
			writeEnvelope(w, &Error{Code: CodeReadOnly, Message: "degraded", RetryAfterMS: 1})
			return
		}
		serveCanned(w, r)
	}))
	t.Cleanup(node.Close)
	c, err := New(node.URL, WithRetry(4, time.Millisecond), WithCircuitBreaker(2, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	is, err := c.Ingest(ctx)
	if err != nil {
		t.Fatalf("ingest open after one read_only refusal: %v", err)
	}
	if _, err := is.Close(); err != nil {
		t.Fatal(err)
	}
	if got := opens.Load(); got != 2 {
		t.Fatalf("ingest opened %d times, want 2", got)
	}
	req := TrainRequest{Samples: []Sample{{Label: 0, Features: []float64{0.1, 0.2}}}}
	var apiErr *Error
	if _, err := c.Train(ctx, req); !errors.As(err, &apiErr) || apiErr.Code != CodeReadOnly {
		t.Fatalf("first train = %v, want read_only", err)
	}
	if _, err := c.Train(ctx, req); err != nil {
		t.Fatalf("second train = %v: one read_only after a successful open tripped a threshold-2 breaker", err)
	}
}

// Snapshot leaves a replica that answered 503 at once, as every other
// read does, instead of sleeping a backoff before trying the primary.
func TestSnapshotFailsOverWithoutBackoff(t *testing.T) {
	primary := newRetryNode(t, nil)
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, &Error{Code: CodeUnavailable, Message: "restarting"})
	}))
	t.Cleanup(replica.Close)
	c, err := New(primary.ts.URL,
		WithReplicas(replica.URL),
		WithReadPreference(NearestReplica),
		WithRetry(4, 2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	start := time.Now()
	version, err := c.Snapshot(t.Context(), &buf)
	elapsed := time.Since(start)
	if err != nil || version != 7 || buf.String() != "image" {
		t.Fatalf("Snapshot = (v%d, %q, %v), want (v7, image, nil)", version, buf.String(), err)
	}
	if elapsed >= time.Second {
		t.Fatalf("Snapshot reached the primary after %v: it slept a backoff before leaving the 503 replica", elapsed)
	}
	if got := primary.hits.Load(); got != 1 {
		t.Fatalf("primary served %d snapshots, want 1", got)
	}
}
