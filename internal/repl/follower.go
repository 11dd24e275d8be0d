package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hdcirc/internal/httpapi"
	"hdcirc/internal/serve"
	"hdcirc/internal/wal"
)

// FollowerConfig parameterizes the replica-side applier.
type FollowerConfig struct {
	// Server is the local serving core replicated state applies into
	// (required). StartFollower puts it in follower mode.
	Server *serve.Server
	// PrimaryURL is the primary's base URL, e.g. "http://10.0.0.1:8080"
	// (required). A not_primary redirect from the tier updates it.
	PrimaryURL string
	// Client issues the long-lived replicate-stream request. nil selects
	// a default client with no overall timeout (the stream is unbounded
	// by design; cancellation comes from the follower's context).
	Client *http.Client
	// ReconnectMin/ReconnectMax bound the exponential backoff between
	// connection attempts. <= 0 select 100ms and 5s.
	ReconnectMin, ReconnectMax time.Duration
	// AckEvery is how many applied records may pass between progress
	// acks (idle heartbeats always ack). <= 0 selects 32.
	AckEvery int
	// AckInterval is the keepalive cadence: the follower re-sends its
	// position this often even with nothing new applied. Keepalives are
	// what make a dead connection observable on the WRITE side — a silent
	// request body never touches the socket, so a primary that vanished
	// (or answered with an early error and closed the connection) would
	// otherwise leave the stream blocked forever. <= 0 selects 500ms.
	AckInterval time.Duration
}

func (c *FollowerConfig) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return http.DefaultClient
}

func (c *FollowerConfig) reconnectMin() time.Duration {
	if c.ReconnectMin > 0 {
		return c.ReconnectMin
	}
	return 100 * time.Millisecond
}

func (c *FollowerConfig) reconnectMax() time.Duration {
	if c.ReconnectMax > 0 {
		return c.ReconnectMax
	}
	return 5 * time.Second
}

func (c *FollowerConfig) ackEvery() int {
	if c.AckEvery > 0 {
		return c.AckEvery
	}
	return 32
}

func (c *FollowerConfig) ackInterval() time.Duration {
	if c.AckInterval > 0 {
		return c.AckInterval
	}
	return 500 * time.Millisecond
}

// Follower is the replica side of WAL shipping: one background loop that
// keeps a duplex replicate-stream connection to the primary alive,
// verifies and applies every shipped record through the deterministic
// apply path, installs in-band checkpoint seeds, and acks progress. Its
// resume cursor is the server's applied version, so crashes and
// reconnects are idempotent by construction.
type Follower struct {
	cfg    FollowerConfig
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	head      atomic.Uint64 // primary's newest seq, from frame HeadSeq
	connected atomic.Bool
	reseed    atomic.Bool // next connect requests a checkpoint seed

	mu      sync.Mutex
	primary string
	lastErr error
}

// StartFollower puts the server in follower mode and starts the
// replication loop under ctx. Stop it with Close (or by cancelling ctx);
// flip the node into a primary with Promote.
func StartFollower(ctx context.Context, cfg FollowerConfig) (*Follower, error) {
	if cfg.Server == nil {
		return nil, errors.New("repl: FollowerConfig.Server is required")
	}
	if cfg.PrimaryURL == "" {
		return nil, errors.New("repl: FollowerConfig.PrimaryURL is required")
	}
	if err := cfg.Server.BecomeFollower(cfg.PrimaryURL); err != nil {
		return nil, err
	}
	fctx, cancel := context.WithCancel(ctx)
	f := &Follower{cfg: cfg, ctx: fctx, cancel: cancel, primary: cfg.PrimaryURL}
	cfg.Server.SetReplicationStatsFunc(f.stats)
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// stats summarizes the applier for serve.Stats: the follower's own
// applied version is its acked position, and lag is the primary head's
// distance from it.
func (f *Follower) stats() serve.ReplicationStats {
	applied := f.cfg.Server.Snapshot().Version()
	st := serve.ReplicationStats{LastAckedSeq: applied}
	if head := f.head.Load(); head > applied {
		st.FollowerLagSeq = head - applied
	}
	return st
}

// Lag reports how many sequence numbers the follower trails the newest
// primary head it has heard of.
func (f *Follower) Lag() uint64 { return f.stats().FollowerLagSeq }

// Connected reports whether a replicate stream is currently live.
func (f *Follower) Connected() bool { return f.connected.Load() }

// PrimaryURL reports the primary currently followed (redirects update it).
func (f *Follower) PrimaryURL() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.primary
}

// LastError reports the most recent connection/apply failure, nil while
// the stream is healthy.
func (f *Follower) LastError() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastErr
}

func (f *Follower) setErr(err error) {
	f.mu.Lock()
	f.lastErr = err
	f.mu.Unlock()
}

// Close stops the replication loop and waits for it to exit. The server
// stays a follower (still read-only); Promote instead to take writes.
func (f *Follower) Close() error {
	f.cancel()
	f.wg.Wait()
	return nil
}

// Promote stops the replication loop and flips the server into a primary
// — the promote-on-demand hook. The caller must make sure the old
// primary is dead or demoted first.
func (f *Follower) Promote() error {
	f.cancel()
	f.wg.Wait()
	return f.cfg.Server.Promote()
}

// run reconnects forever with capped exponential backoff; any stream
// that shipped at least one frame resets the backoff.
func (f *Follower) run() {
	defer f.wg.Done()
	backoff := f.cfg.reconnectMin()
	for f.ctx.Err() == nil {
		progressed, err := f.streamOnce()
		f.connected.Store(false)
		if f.ctx.Err() != nil {
			return
		}
		if err != nil {
			f.setErr(err)
		}
		if err != nil && !progressed {
			// The attempt died before a single frame. When the endpoint
			// refused the stream with an early error response, the duplex
			// transport can surface that as a bare connection fault with
			// the envelope (and any not_primary redirect hint) lost —
			// recover it with a plain-body probe.
			f.probeRefusal()
		}
		if progressed {
			backoff = f.cfg.reconnectMin()
		}
		if !f.sleep(backoff) {
			return
		}
		if backoff *= 2; backoff > f.cfg.reconnectMax() {
			backoff = f.cfg.reconnectMax()
		}
	}
}

// sleep waits d unless the follower is closed first.
func (f *Follower) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// streamOnce runs one replicate-stream connection to completion:
// request, duplex ack writer, frame apply loop. progressed reports
// whether any frame arrived (backoff reset).
func (f *Follower) streamOnce() (progressed bool, err error) {
	from := f.cfg.Server.Snapshot().Version() + 1
	if f.reseed.CompareAndSwap(true, false) {
		from = 0 // force a checkpoint seed
	}

	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(f.ctx, http.MethodPost, f.PrimaryURL()+"/v1/replicate:stream", pr)
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	// Expect: 100-continue is load-bearing, not an optimization. The
	// server only reads the request body once it has accepted the stream,
	// so when it refuses early (not_primary, unavailable) the refusal
	// arrives as the final response with the body never sent. Without it,
	// the server blocks draining the never-ending ack body before it can
	// finish the error response while the client waits for that response
	// before closing the body — a mutual deadlock.
	req.Header.Set("Expect", "100-continue")

	// The request body is the follower's half of the duplex stream: the
	// position announcement, then acks as applies land. The writer owns
	// the pipe and ALWAYS closes it on exit — that is what unblocks the
	// transport's body copy so Do can return on cancellation, and what
	// lets the transport observe the body's end when the attempt is over.
	acks := make(chan uint64, 16)
	attemptDone := make(chan struct{})
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		defer pw.CloseWithError(errors.New("repl: stream attempt ended"))
		enc := json.NewEncoder(pw)
		if err := enc.Encode(httpapi.ReplicateRequest{FromSeq: from}); err != nil {
			return
		}
		keepalive := time.NewTicker(f.cfg.ackInterval())
		defer keepalive.Stop()
		for {
			select {
			case <-f.ctx.Done():
				return
			case <-attemptDone:
				return
			case seq := <-acks:
				if enc.Encode(httpapi.ReplicateAck{AckedSeq: seq}) != nil {
					return
				}
			case <-keepalive.C:
				// Re-announce the applied position even while idle: the
				// write is what detects a dead or half-closed connection
				// (see FollowerConfig.AckInterval).
				if enc.Encode(httpapi.ReplicateAck{AckedSeq: f.cfg.Server.Snapshot().Version()}) != nil {
					return
				}
			}
		}
	}()
	defer func() {
		close(attemptDone)
		wwg.Wait()
	}()

	resp, err := f.cfg.client().Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, f.handleWireError(httpapi.DecodeError(resp.Body, resp.StatusCode))
	}

	ack := func(seq uint64) {
		select {
		case acks <- seq:
		default: // acks are progress hints; dropping one is harmless
		}
	}

	dec := json.NewDecoder(resp.Body)
	sinceAck := 0
	for {
		var frame httpapi.ReplicateFrame
		if err := dec.Decode(&frame); err != nil {
			if errors.Is(err, io.EOF) || f.ctx.Err() != nil {
				return progressed, nil // primary closed the stream; reconnect
			}
			return progressed, fmt.Errorf("repl: reading stream: %w", err)
		}
		progressed = true
		f.connected.Store(true)
		f.setErr(nil)
		if frame.HeadSeq > f.head.Load() {
			f.head.Store(frame.HeadSeq)
		}
		switch {
		case frame.Error != nil:
			return progressed, f.handleWireError(frame.Error)
		case len(frame.Checkpoint) > 0:
			if err := f.cfg.Server.InstallCheckpoint(f.ctx, frame.Checkpoint); err != nil {
				return progressed, fmt.Errorf("repl: installing checkpoint seed at %d: %w", frame.CheckpointVersion, err)
			}
			ack(f.cfg.Server.Snapshot().Version())
			sinceAck = 0
		case frame.Seq > 0:
			// End-to-end integrity: the echoed CRC is the one the
			// primary's disk stores for this record.
			if wal.RecordCRC(frame.Seq, frame.Payload) != frame.CRC {
				return progressed, fmt.Errorf("repl: record %d failed CRC verification", frame.Seq)
			}
			if err := f.applyRecord(frame.Seq, frame.Payload); err != nil {
				return progressed, err
			}
			if sinceAck++; sinceAck >= f.cfg.ackEvery() {
				ack(f.cfg.Server.Snapshot().Version())
				sinceAck = 0
			}
		case frame.Heartbeat:
			ack(f.cfg.Server.Snapshot().Version())
			sinceAck = 0
		}
	}
}

// applyRecord applies one shipped record, tolerating exact duplicates (a
// record at or below the applied version after a reconnect race) and
// treating gaps as stream faults.
func (f *Follower) applyRecord(seq uint64, payload []byte) error {
	err := f.cfg.Server.ApplyReplicated(f.ctx, seq, payload)
	if errors.Is(err, serve.ErrReplSeq) && seq <= f.cfg.Server.Snapshot().Version() {
		return nil // already applied; idempotent skip
	}
	if err != nil {
		return fmt.Errorf("repl: applying record %d: %w", seq, err)
	}
	return nil
}

// probeRefusal re-requests the replicate endpoint with a complete
// (non-pipe) body so an early error response is reliably readable, and
// feeds any structured refusal through handleWireError. Best-effort: a
// healthy primary just gets a stream that is immediately abandoned, and
// probe failures are ignored (the reconnect loop is already backing off).
func (f *Follower) probeRefusal() {
	ctx, cancel := context.WithTimeout(f.ctx, 2*time.Second)
	defer cancel()
	var body bytes.Buffer
	line := httpapi.ReplicateRequest{FromSeq: f.cfg.Server.Snapshot().Version() + 1}
	if json.NewEncoder(&body).Encode(line) != nil {
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.PrimaryURL()+"/v1/replicate:stream", bytes.NewReader(body.Bytes()))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := f.cfg.client().Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_ = f.handleWireError(httpapi.DecodeError(resp.Body, resp.StatusCode))
	}
}

// handleWireError reacts to a structured protocol error: not_primary
// re-points the follower (and its server's advertised primary) at the
// hinted URL, stale_seq forces a checkpoint re-seed on the next connect,
// anything else just reconnects with backoff.
func (f *Follower) handleWireError(e *httpapi.Error) error {
	switch e.Code {
	case httpapi.CodeNotPrimary:
		if e.PrimaryURL != "" {
			f.mu.Lock()
			f.primary = e.PrimaryURL
			f.mu.Unlock()
			// Keep the server's redirect hint accurate for its own clients.
			if err := f.cfg.Server.BecomeFollower(e.PrimaryURL); err != nil {
				return err
			}
		}
	case httpapi.CodeStaleSeq:
		f.reseed.Store(true)
	}
	return e
}
