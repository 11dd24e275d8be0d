package client

// NDJSON streaming: bulk ingest and bulk prediction over single
// long-lived requests. Rows flow through an io.Pipe into the request body
// while a response goroutine consumes the server's acknowledgment (or
// result) lines concurrently — full duplex, so server acks can never fill
// a socket buffer and deadlock a writer that hasn't finished sending.
//
// Every stream opens with Expect: 100-continue, which does two jobs at
// once. First, it prevents a mutual deadlock with servers that refuse the
// stream early: without it, a refusing server blocks draining the unread
// chunked body before completing its response while the client waits for
// the response before ending the body. Second, it turns the open into a
// handshake — the body is withheld until the server commits to reading
// it, so an open-time refusal (429 overloaded, 503 read_only /
// follower_read_only, 421 not_primary) arrives with zero rows sent,
// which makes retrying the OPEN safe. Ingest and PredictStream therefore
// make each open attempt through the client's one attempt loop (see the
// package comment for what it retries). An ESTABLISHED stream is still
// never retried: a broken ingest stream may be partially applied, and the
// per-batch acks tell the caller exactly how far the server got (resume
// from the first unacknowledged row).

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"

	"hdcirc/internal/httpapi"
)

// stream is the shared duplex plumbing of both stream kinds.
type stream struct {
	ctx   context.Context // the request context; bounds every blocking wait
	pw    *io.PipeWriter
	bw    *bufio.Writer
	enc   *json.Encoder
	batch int // rows per client-side flush
	sent  int

	respDone chan struct{}
	status   int // the answer's HTTP status; read only once respDone is closed
	mu       sync.Mutex
	err      error // first fault from either direction; sticky
}

// startStream opens the request against one endpoint, performs the
// 100-continue open handshake, and spawns the response consumer. A
// non-nil error means the server refused the stream before reading any
// row (status is its answer's HTTP status) or no answer arrived (status
// 0) — either way the caller may safely retry against the same or another
// endpoint.
func (c *Client) startStream(ctx context.Context, base, path string, consume func(*json.Decoder) error) (s *stream, status int, err error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, pr)
	if err != nil {
		pw.Close()
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("Expect", "100-continue")
	accepted := make(chan struct{})
	var acceptOnce sync.Once
	trace := &httptrace.ClientTrace{
		Got100Continue: func() { acceptOnce.Do(func() { close(accepted) }) },
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
	s = &stream{
		ctx:      ctx,
		pw:       pw,
		bw:       bufio.NewWriterSize(pw, 64<<10),
		batch:    c.streamBatch,
		respDone: make(chan struct{}),
	}
	s.enc = json.NewEncoder(s.bw)
	go func() {
		defer close(s.respDone)
		resp, err := c.hc.Do(req)
		if err != nil {
			s.fail(fmt.Errorf("client: %s: %w", path, err))
			return
		}
		defer drain(resp)
		s.status = resp.StatusCode
		if resp.StatusCode != http.StatusOK {
			s.fail(httpapi.DecodeError(resp.Body, resp.StatusCode))
			return
		}
		if err := consume(json.NewDecoder(resp.Body)); err != nil {
			s.fail(err)
		}
	}()
	// Open handshake: wait until the server commits to reading the body
	// (it sends 100 Continue on its first body read), refuses outright, or
	// the transport's ExpectContinueTimeout (1s on the default transport)
	// has certainly elapsed — past that the body flows regardless, which is
	// also the right fallback for proxies that swallow the 100.
	timer := time.NewTimer(1300 * time.Millisecond)
	defer timer.Stop()
	select {
	case <-accepted:
	case <-timer.C:
	case <-s.respDone:
		if err := s.asyncErr(); err != nil {
			return nil, s.status, err
		}
	case <-ctx.Done():
		s.fail(ctx.Err())
		<-s.respDone
		return nil, 0, ctx.Err()
	}
	return s, 0, nil
}

// fail records the first fault and unblocks any Send stuck on the pipe.
func (s *stream) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.pw.CloseWithError(err)
}

func (s *stream) asyncErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// send encodes one NDJSON row, flushing the client-side buffer every batch
// rows so the server sees work promptly without a syscall per row.
func (s *stream) send(row any) error {
	if err := s.asyncErr(); err != nil {
		return err
	}
	if err := s.enc.Encode(row); err != nil {
		if aerr := s.asyncErr(); aerr != nil {
			return aerr // the pipe broke because the response side failed; say why
		}
		return err
	}
	s.sent++
	if s.sent%s.batch == 0 {
		if err := s.bw.Flush(); err != nil {
			if aerr := s.asyncErr(); aerr != nil {
				return aerr
			}
			return err
		}
	}
	return nil
}

// finish flushes, closes the request body and waits for the response
// consumer to drain.
func (s *stream) finish() error {
	ferr := s.bw.Flush()
	s.pw.Close()
	<-s.respDone
	if err := s.asyncErr(); err != nil {
		return err
	}
	return ferr
}

// ---------------------------------------------------------------------------
// Bulk ingest
// ---------------------------------------------------------------------------

// IngestStream is an open bulk-ingest session (POST /v1/ingest:stream).
// Send rows, then Close for the server's summary. Not safe for concurrent
// Senders; wrap with your own mutex to fan in.
type IngestStream struct {
	s *stream

	mu         sync.Mutex
	lastAck    IngestAck
	applied    int
	summary    IngestAck
	sawSummary bool
}

// Ingest opens a bulk-ingest stream against the current primary. Rows are
// coalesced server-side into write batches (one snapshot publication per
// batch, not per row), each acknowledged as it lands; Close returns the
// final summary. A refused OPEN (zero rows sent, guaranteed by the
// 100-continue handshake) is retried like a write, and its write-plane
// 503s too (a degraded or follower node), while an established stream
// that breaks is never replayed.
func (c *Client) Ingest(ctx context.Context) (*IngestStream, error) {
	var is *IngestStream
	err := c.call(ctx, openCall, "/v1/ingest:stream", func(ctx context.Context, ep *endpoint) (status int, err error) {
		is = &IngestStream{}
		is.s, status, err = c.startStream(ctx, ep.base, "/v1/ingest:stream", is.consume)
		return status, err
	})
	if err != nil {
		return nil, err
	}
	return is, nil
}

// consume reads the server's ack lines into is until the stream ends.
func (is *IngestStream) consume(dec *json.Decoder) error {
	for {
		var ack IngestAck
		if err := dec.Decode(&ack); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("client: decoding ingest ack: %w", err)
		}
		if ack.Error != nil {
			return ack.Error
		}
		is.mu.Lock()
		if ack.Done {
			is.summary, is.sawSummary = ack, true
		} else {
			is.lastAck = ack
			is.applied += ack.Rows
		}
		is.mu.Unlock()
	}
}

// Send queues one row. A non-nil error is sticky and reflects the first
// fault from either direction — on a server fault, rows past the last
// acknowledgment were not applied.
func (is *IngestStream) Send(row IngestRow) error { return is.s.send(row) }

// Applied returns how many rows the server has acknowledged so far — the
// resume point if the stream breaks.
func (is *IngestStream) Applied() (rows int, version uint64) {
	is.mu.Lock()
	defer is.mu.Unlock()
	return is.applied, is.lastAck.Version
}

// Close ends the stream and returns the server's summary. It fails if the
// server never sent one, or acknowledged fewer rows than were sent.
func (is *IngestStream) Close() (IngestAck, error) {
	if err := is.s.finish(); err != nil {
		return IngestAck{}, err
	}
	is.mu.Lock()
	defer is.mu.Unlock()
	if !is.sawSummary {
		return IngestAck{}, fmt.Errorf("client: ingest stream ended without a summary line")
	}
	if is.summary.TotalRows != is.s.sent {
		return is.summary, fmt.Errorf("client: sent %d rows but server applied %d", is.s.sent, is.summary.TotalRows)
	}
	return is.summary, nil
}

// ---------------------------------------------------------------------------
// Bulk prediction
// ---------------------------------------------------------------------------

// PredictStream is an open bulk-prediction session: Send queries, Recv
// results (exactly one per query, in order), CloseSend when done sending.
// One goroutine may Send while another Recvs — that is the intended shape;
// neither side is safe for multiple concurrent callers.
type PredictStream struct {
	s       *stream
	results chan PredictResult
}

// PredictStream opens a bulk-prediction stream (POST /v1/predict:stream),
// routed per the read preference. A refused or failed OPEN (no query
// sent yet, guaranteed by the 100-continue handshake) is retried like any
// read.
func (c *Client) PredictStream(ctx context.Context) (*PredictStream, error) {
	var ps *PredictStream
	err := c.call(ctx, readCall, "/v1/predict:stream", func(ctx context.Context, ep *endpoint) (status int, err error) {
		ps = &PredictStream{results: make(chan PredictResult, 1024)}
		ps.s, status, err = c.startStream(ctx, ep.base, "/v1/predict:stream", ps.consume)
		return status, err
	})
	if err != nil {
		return nil, err
	}
	return ps, nil
}

// consume forwards the server's result lines to Recv until the stream ends.
func (ps *PredictStream) consume(dec *json.Decoder) error {
	defer close(ps.results)
	for {
		var res PredictResult
		if err := dec.Decode(&res); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("client: decoding predict result: %w", err)
		}
		if res.Error != nil {
			return res.Error
		}
		ps.results <- res
	}
}

// Send queues one query row.
func (ps *PredictStream) Send(features []float64) error {
	return ps.s.send(PredictRow{Features: features})
}

// CloseSend flushes and ends the request side; Recv keeps delivering until
// the server's results drain.
func (ps *PredictStream) CloseSend() error {
	err := ps.s.bw.Flush()
	ps.s.pw.Close()
	return err
}

// Recv returns the next result, or io.EOF after the last one. It is
// bounded by the context the stream was opened with: if that context ends,
// or the response goroutine dies without ever running the result consumer
// (e.g. the dial itself failed), Recv returns the fault instead of
// blocking forever on a channel nothing will ever close.
func (ps *PredictStream) Recv() (PredictResult, error) {
	select {
	case res, ok := <-ps.results:
		if !ok {
			return ps.endOfStream()
		}
		return res, nil
	case <-ps.s.respDone:
		// The response side is finished, but results may still be
		// buffered (the consumer closes the channel before respDone
		// closes) — drain those before reporting the stream's fate.
		select {
		case res, ok := <-ps.results:
			if ok {
				return res, nil
			}
		default:
			// The consumer never ran, so the channel never closes: the
			// request failed before a response arrived.
		}
		return ps.endOfStream()
	case <-ps.s.ctx.Done():
		return PredictResult{}, ps.s.ctx.Err()
	}
}

// endOfStream reports why no further results will arrive.
func (ps *PredictStream) endOfStream() (PredictResult, error) {
	// The results channel closes (inside consume) before startStream
	// records a server-reported fault via fail; wait for the response
	// goroutine to finish so a stream error is never misread as EOF.
	<-ps.s.respDone
	if err := ps.s.asyncErr(); err != nil {
		return PredictResult{}, err
	}
	return PredictResult{}, io.EOF
}

// PredictAll streams every row through one bulk-prediction request and
// returns the results in row order — the high-throughput alternative to
// Predict for large query sets.
func (c *Client) PredictAll(ctx context.Context, rows [][]float64) ([]PredictResult, error) {
	ps, err := c.PredictStream(ctx)
	if err != nil {
		return nil, err
	}
	sendErr := make(chan error, 1)
	go func() {
		for _, row := range rows {
			if err := ps.Send(row); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- ps.CloseSend()
	}()
	out := make([]PredictResult, 0, len(rows))
	for {
		res, err := ps.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	if err := <-sendErr; err != nil {
		return nil, err
	}
	if len(out) != len(rows) {
		return out, fmt.Errorf("client: sent %d queries but received %d results", len(rows), len(out))
	}
	return out, nil
}
