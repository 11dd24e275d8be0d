package client

// Replica-aware routing. A Client built with WithReplicas knows the whole
// serving tier: one primary plus any number of read replicas. Writes
// (Train, Ingest) always target the current primary — and when a node
// answers not_primary with a redirect hint (after a failover promoted a
// different replica), the client adopts the hinted primary and retries,
// so callers survive promotion without reconfiguration. Reads route per
// the configured ReadPreference and fail over across endpoints before
// giving up. Every endpoint keeps its own circuit breaker and its own
// latency/lag observations; one slow or degraded node never poisons the
// view of another.

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"
)

// ReadPreference selects which endpoints serve the read plane (Predict*,
// RouteKey, Cleanup, HasSymbol, Stats, Health, Snapshot). Use the
// Primary/NearestReplica values or the BoundedStaleness constructor.
type ReadPreference struct {
	kind   uint8
	maxLag uint64
}

const (
	prefPrimary uint8 = iota
	prefNearest
	prefBounded
)

// Primary routes every read to the current primary — the strongest
// consistency and the default: a Client without replicas behaves exactly
// as before.
var Primary = ReadPreference{kind: prefPrimary}

// NearestReplica prefers the replica with the lowest observed request
// latency (an exponentially weighted average of successful reads),
// falling back through the remaining replicas and finally the primary.
// Reads may lag the primary by however far replication is behind.
var NearestReplica = ReadPreference{kind: prefNearest}

// BoundedStaleness prefers replicas whose replication lag (as the replica
// itself reports in its stats) is at most maxLag sequence numbers, falling
// back to the primary when no replica qualifies. Lag observations are
// cached briefly (see lagTTL), so the bound is approximate by one refresh
// interval.
func BoundedStaleness(maxLag uint64) ReadPreference {
	return ReadPreference{kind: prefBounded, maxLag: maxLag}
}

// WithReplicas declares the read replicas of the serving tier. The first
// argument of New stays the primary. Replica URLs take the same form as
// the primary's.
func WithReplicas(urls ...string) Option {
	return func(c *Client) { c.replicaURLs = append(c.replicaURLs, urls...) }
}

// WithReadPreference sets how the read plane is routed across the tier.
// The default is Primary.
func WithReadPreference(p ReadPreference) Option {
	return func(c *Client) { c.pref = p }
}

// lagTTL bounds how stale a cached replica-lag observation may be before
// BoundedStaleness routing refreshes it with a stats probe.
const lagTTL = time.Second

// endpoint is one node of the serving tier as this client sees it: its
// base URL plus purely local observations — write-plane circuit breaker
// state, read-latency average, and the replication lag it last reported.
type endpoint struct {
	base string
	br   *breaker

	mu       sync.Mutex
	rtt      time.Duration // EWMA of successful read round trips; 0 = unmeasured
	lag      uint64        // replication lag it last reported
	lagKnown bool
	lagAt    time.Time // when lag was observed
}

// observeRTT folds one successful read's round trip into the moving
// average (¾ old, ¼ new — reactive but not jittery).
func (ep *endpoint) observeRTT(d time.Duration) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.rtt == 0 {
		ep.rtt = d
		return
	}
	ep.rtt = (3*ep.rtt + d) / 4
}

func (ep *endpoint) readRTT() time.Duration {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.rtt
}

// freshLag returns the endpoint's replication lag, refreshing the cached
// observation with a direct stats probe when it is older than lagTTL.
// ok=false means the lag is unknowable right now (probe failed) and the
// endpoint should not be trusted for bounded-staleness reads.
func (ep *endpoint) freshLag(ctx context.Context, c *Client) (lag uint64, ok bool) {
	ep.mu.Lock()
	if ep.lagKnown && time.Since(ep.lagAt) < lagTTL {
		lag = ep.lag
		ep.mu.Unlock()
		return lag, true
	}
	ep.mu.Unlock()

	pctx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
	defer cancel()
	var st StatsResponse
	if _, err := c.roundTrip(pctx, http.MethodGet, ep.base+"/v1/stats", nil, &st); err != nil {
		return 0, false
	}
	if st.Replication != nil {
		lag = st.Replication.FollowerLagSeq
	}
	ep.mu.Lock()
	ep.lag, ep.lagKnown, ep.lagAt = lag, true, time.Now()
	ep.mu.Unlock()
	return lag, true
}

// primaryEndpoint returns the node writes currently target.
func (c *Client) primaryEndpoint() *endpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primary
}

// PrimaryURL reports the base URL writes currently target. It changes
// when a not_primary redirect makes the client adopt a newly promoted
// primary.
func (c *Client) PrimaryURL() string { return c.primaryEndpoint().base }

// adoptPrimary re-points writes at the primary a not_primary redirect
// hinted. The previous primary stays in the endpoint set as a replica —
// after a failover it usually IS one. Reports whether anything changed.
func (c *Client) adoptPrimary(rawURL string) bool {
	base, err := normalizeBase(rawURL)
	if err != nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.primary.base == base {
		return false
	}
	np, ok := c.eps[base]
	if !ok {
		np = c.newEndpoint(base)
		c.eps[base] = np
	}
	old := c.primary
	c.primary = np
	// The endpoint sets swap roles: the new primary leaves the replica
	// list, the demoted one joins it.
	keep := c.replicas[:0]
	for _, ep := range c.replicas {
		if ep != np {
			keep = append(keep, ep)
		}
	}
	c.replicas = append(keep, old)
	return true
}

// readCandidates returns the endpoints a read should try, in order, per
// the read preference. Always non-empty; the primary is the final
// fallback for every replica-preferring mode.
func (c *Client) readCandidates(ctx context.Context) []*endpoint {
	c.mu.Lock()
	primary := c.primary
	reps := make([]*endpoint, len(c.replicas))
	copy(reps, c.replicas)
	c.mu.Unlock()

	if len(reps) == 0 || c.pref.kind == prefPrimary {
		return []*endpoint{primary}
	}
	if c.pref.kind == prefBounded {
		within := reps[:0]
		for _, ep := range reps {
			if lag, ok := ep.freshLag(ctx, c); ok && lag <= c.pref.maxLag {
				within = append(within, ep)
			}
		}
		reps = within
	}
	// Unmeasured endpoints sort first: the only way to learn their latency
	// is to use them.
	sort.SliceStable(reps, func(i, j int) bool {
		ri, rj := reps[i].readRTT(), reps[j].readRTT()
		if (ri == 0) != (rj == 0) {
			return ri == 0
		}
		return ri < rj
	})
	return append(reps, primary)
}

// newEndpoint builds an endpoint with its own breaker from the client's
// breaker template. Callers hold c.mu (or are inside New).
func (c *Client) newEndpoint(base string) *endpoint {
	return &endpoint{base: base, br: &breaker{threshold: c.brThreshold, cooldown: c.brCooldown}}
}

// normalizeBase validates and canonicalizes one endpoint URL.
func normalizeBase(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("client: parsing endpoint URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("client: endpoint URL %q needs an http or https scheme", raw)
	}
	return strings.TrimRight(u.String(), "/"), nil
}
