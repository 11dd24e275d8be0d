package client

// Circuit breaker for the write plane. A degraded server answers every
// write with a 503 (read_only / unavailable) until an operator or its
// retry probe heals it; hammering it with doomed train batches wastes
// sockets on both sides and hides the real state from the caller. The
// breaker counts consecutive write-plane 503s, and past the threshold it
// fails writes fast with ErrCircuitOpen. After the cooldown the next
// write half-opens the circuit: one healthz ?plane=write probe decides
// whether writes flow again or the circuit snaps shut for another
// cooldown. Transport faults do NOT count — a connection that died
// mid-flight says nothing about the write plane, and counting it would
// trip the breaker during ordinary restarts.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// ErrCircuitOpen is returned by write-plane calls while the circuit
// breaker is open: the server has answered too many consecutive writes
// with 503 and the cooldown has not produced a healthy write plane yet.
// The request was never sent.
var ErrCircuitOpen = errors.New("client: circuit breaker open (server write plane unavailable)")

type breaker struct {
	threshold int           // consecutive write-plane 503s that trip it; <= 0 disables
	cooldown  time.Duration // how long to fail fast before half-opening

	mu          sync.Mutex
	consecutive int
	open        bool
	retryAt     time.Time // when open: earliest half-open probe
	probing     bool      // a half-open probe is in flight; others fail fast
}

// allow gates one write-plane call against the endpoint at base. nil
// means send it; ErrCircuitOpen means fail fast. In the half-open state
// exactly one caller probes that endpoint's write-plane health; concurrent
// writes keep failing fast until the probe settles the circuit.
func (b *breaker) allow(ctx context.Context, c *Client, base string) error {
	if b == nil || b.threshold <= 0 {
		return nil
	}
	b.mu.Lock()
	if !b.open {
		b.mu.Unlock()
		return nil
	}
	if time.Now().Before(b.retryAt) || b.probing {
		b.mu.Unlock()
		return ErrCircuitOpen
	}
	b.probing = true
	b.mu.Unlock()

	// One attempt, no retries: the point of the half-open state is a
	// cheap, decisive answer from this endpoint's write plane.
	_, err := c.roundTrip(ctx, http.MethodGet, base+"/v1/healthz?plane=write", nil, nil)
	healthy := err == nil

	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if healthy {
		b.open = false
		b.consecutive = 0
		return nil
	}
	b.retryAt = time.Now().Add(b.cooldown)
	return fmt.Errorf("%w: write plane still unhealthy at half-open probe", ErrCircuitOpen)
}

// failure records one write-plane 503 and trips the circuit at the
// threshold.
func (b *breaker) failure() {
	if b == nil || b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if !b.open && b.consecutive >= b.threshold {
		b.open = true
		b.retryAt = time.Now().Add(b.cooldown)
	}
}

// success resets the circuit after any write the server accepted.
func (b *breaker) success() {
	if b == nil || b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	b.open = false
}

// writePlaneFault reports whether a response counts toward tripping: the
// structured 503s a degraded or closed server answers writes with,
// including a follower that lost its primary (follower_read_only) — that
// node cannot admit writes until an operator promotes it or re-points it.
func writePlaneFault(err *Error) bool {
	return err != nil && (err.Code == CodeReadOnly || err.Code == CodeUnavailable || err.Code == CodeFollowerReadOnly)
}
