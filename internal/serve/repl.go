package serve

// Replication hooks: the serve layer's side of the primary/follower tier
// built in internal/repl. The design keeps the state machine honest by
// changing nothing about HOW batches apply — a follower pushes the
// primary's verbatim WAL payloads through the exact validate-then-apply
// path ApplyBatch uses, at the exact same sequence numbers, so a replica
// at version V is bit-identical to the primary at version V (the same
// invariant crash recovery already proves). What this file adds is:
//
//   - Roles. A follower rejects client writes with ErrNotPrimary (carrying
//     the primary's URL for redirect hints) and accepts ApplyReplicated
//     instead; Promote flips it into a primary without a restart.
//   - ApplyReplicated: the follower-only write path. The record lands in
//     the follower's own WAL under the primary's sequence number, so a
//     restarted follower recovers locally and rejoins the stream at its
//     last applied seq.
//   - InstallCheckpoint: catch-up seeding. When the primary has compacted
//     past a follower's position, the follower swallows a whole checkpoint
//     image (the same HCKP bytes checkpoint files hold), resets its state
//     to it, persists it to its own durability directory, and realigns its
//     log — after which suffix shipping resumes.
//   - SubscribeApplied: a coalesced apply signal. Subscribers get "versions
//     advanced", not records; the shipper re-reads new records from the log
//     (WALStreamFrom), so the disk is the only buffer and a slow follower
//     can never make the primary drop or queue records in memory.

import (
	"context"
	"errors"
	"fmt"
)

// Role is a server's position in the replication topology.
type Role int

const (
	// RolePrimary accepts client writes and ships its WAL to followers.
	RolePrimary Role = iota
	// RoleFollower applies replicated records only; client writes are
	// rejected with ErrNotPrimary.
	RoleFollower
)

func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleFollower:
		return "follower"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// ErrNotPrimary is returned (possibly wrapped, with the primary's URL when
// known) by client writes against a follower. Front ends translate it into
// a redirect hint so the client SDK can fail over to the primary.
var ErrNotPrimary = errors.New("serve: not the primary (read-only replica)")

// ErrReplSeq is returned (wrapped) by ApplyReplicated when the record's
// sequence number does not follow the follower's applied version: the
// stream is stale or has a gap, and the shipper must reconnect from the
// follower's actual position.
var ErrReplSeq = errors.New("serve: replicated record out of sequence")

// ReplicationStats is the replication block of Stats, produced by the
// registered stats callback (the repl shipper on a primary, the repl
// applier on a follower).
type ReplicationStats struct {
	// ConnectedFollowers is the number of live replication streams (primary
	// side; zero on followers).
	ConnectedFollowers int `json:"connected_followers"`
	// FollowerLagSeq is how many sequence numbers this server trails the
	// newest one it knows about: on a follower, primary head − applied
	// version; on a primary, its head − the slowest connected follower's
	// acked seq.
	FollowerLagSeq uint64 `json:"follower_lag_seq"`
	// LastAckedSeq is the newest sequence acknowledged across the tier:
	// on a follower, its own applied version; on a primary, the slowest
	// connected follower's acknowledged seq (0 with no followers).
	LastAckedSeq uint64 `json:"last_acked_seq"`
}

// BecomeFollower marks the server a read-only replica of the primary at
// primaryURL (may be empty when unknown): client writes start failing with
// ErrNotPrimary; ApplyReplicated and InstallCheckpoint become the only
// write paths. Safe to call on a live server — in-flight ApplyBatch calls
// that already hold the write slot complete first.
func (s *Server) BecomeFollower(primaryURL string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.role = RoleFollower
	s.roleSet = true
	s.primaryURL = primaryURL
	return nil
}

// Promote flips a follower into a primary: client writes are accepted
// again, starting from exactly the state the replication stream had
// applied. The caller is responsible for making sure the old primary is
// dead or demoted first — two primaries diverge.
func (s *Server) Promote() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.role = RolePrimary
	s.roleSet = true
	s.primaryURL = ""
	return nil
}

// Role reports the server's current replication role. Servers that never
// saw BecomeFollower/Promote are primaries.
func (s *Server) Role() Role {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.role
}

// PrimaryURL reports the primary's URL as configured by BecomeFollower —
// empty on primaries and on followers that were not told.
func (s *Server) PrimaryURL() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.primaryURL
}

// SetReplicationStatsFunc registers the callback Stats uses to fill its
// replication block. The callback runs outside the server's locks but on
// the Stats caller's goroutine — it must be fast and must not call back
// into Stats. nil unregisters.
func (s *Server) SetReplicationStatsFunc(fn func() ReplicationStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replStatsFn = fn
}

// SubscribeApplied returns a coalesced apply-notification channel: after
// any successful apply (client batch or replicated record) the channel
// holds a token. Multiple applies between receives coalesce into one token
// — the subscriber is expected to re-read the log for everything new, so
// a signal is never "missed", only merged. cancel unregisters; the channel
// is never closed.
func (s *Server) SubscribeApplied() (ch <-chan struct{}, cancel func()) {
	c := make(chan struct{}, 1)
	s.subMu.Lock()
	id := s.nextSub
	s.nextSub++
	s.subs[id] = c
	s.subMu.Unlock()
	return c, func() {
		s.subMu.Lock()
		delete(s.subs, id)
		s.subMu.Unlock()
	}
}

// notifyApplied deposits a token with every subscriber, without blocking:
// a full channel already signals "something new", which is all the signal
// carries.
func (s *Server) notifyApplied() {
	s.subMu.Lock()
	for _, c := range s.subs {
		select {
		case c <- struct{}{}:
		default:
		}
	}
	s.subMu.Unlock()
}

// ApplyReplicated applies one record shipped from the primary: the
// verbatim WAL payload of the batch that published version seq there. The
// record must extend the follower's history exactly (seq == version+1,
// else ErrReplSeq), is validated like any client batch, lands in the
// follower's own log under the same sequence number, and applies through
// the deterministic path — which is the whole bit-identity argument.
// Follower-only; primaries reject it so a misrouted stream cannot fork
// history.
func (s *Server) ApplyReplicated(ctx context.Context, seq uint64, payload []byte) error {
	if err := s.acquireWriter(ctx); err != nil {
		return err
	}
	defer func() { <-s.wsem }()

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.role != RoleFollower:
		return fmt.Errorf("serve: ApplyReplicated on a %s (followers only)", s.role)
	case s.walErr != nil:
		return fmt.Errorf("%w: %w earlier: %v", ErrDegraded, ErrWALFailed, s.walErr)
	}
	var b Batch
	if err := s.checkRecordLocked(seq, payload, &b); err != nil {
		return err
	}
	if s.wal != nil {
		got, err := s.wal.Append(payload)
		if err != nil {
			s.degradeLocked(err)
			return fmt.Errorf("%w: %w: replicated append: %w", ErrDegraded, ErrWALFailed, err)
		}
		if got != seq {
			// The local log numbered the record differently than the
			// primary — the follower's history has silently forked. Nothing
			// appended after this point would be trustworthy: fail-stop.
			err := fmt.Errorf("serve: local log assigned seq %d to replicated record %d", got, seq)
			s.degradeLocked(err)
			return fmt.Errorf("%w: %w: %w", ErrDegraded, ErrWALFailed, err)
		}
	}
	if _, err := s.applyLocked(&b); err != nil {
		if s.wal != nil {
			s.degradeLocked(err)
		}
		return err
	}
	s.maybeCheckpointLocked()
	return nil
}

// InstallCheckpoint resets a follower to the exact state in a checkpoint
// image produced by EncodeCheckpoint (equivalently: the bytes of a
// checkpoint file). The image is CRC-verified and fully parsed into a
// scratch server before anything mutates, so a bad image leaves the
// follower untouched. On success the image must not precede the follower's
// current version (that would rewind history — ErrReplSeq), the state is
// adopted atomically behind the snapshot pointer, and on a durable
// follower the image is persisted as a regular checkpoint file and the
// local log realigned past it — a restart recovers from it like any other
// checkpoint.
func (s *Server) InstallCheckpoint(ctx context.Context, raw []byte) error {
	if err := s.acquireWriter(ctx); err != nil {
		return err
	}
	defer func() { <-s.wsem }()
	// Lock order: ckptMu before mu, matching Checkpoint — a background
	// checkpoint holding ckptMu briefly takes mu to encode.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	// Parse and verify against a scratch in-memory server first; only a
	// fully-loaded image is adopted.
	cfg := s.cfg
	cfg.WAL = nil
	fresh, err := NewServer(cfg)
	if err != nil {
		return err
	}
	if err := loadCheckpointBytes(fresh, raw); err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.role != RoleFollower:
		return fmt.Errorf("serve: InstallCheckpoint on a %s (followers only)", s.role)
	case s.walErr != nil:
		return fmt.Errorf("%w: %w earlier: %v", ErrDegraded, ErrWALFailed, s.walErr)
	case fresh.version < s.version:
		return fmt.Errorf("%w: checkpoint at version %d precedes applied version %d", ErrReplSeq, fresh.version, s.version)
	}

	// Durable followers persist the image before adopting it: once the
	// in-memory state has moved past the local log a crash must find the
	// checkpoint on disk, or restart recovery rewinds behind the primary's
	// compaction horizon again.
	if s.wal != nil {
		if s.wal.NextSeq() > fresh.version+1 {
			return fmt.Errorf("serve: local log already holds seq %d, cannot install checkpoint at version %d", s.wal.NextSeq()-1, fresh.version)
		}
		oldest, err := s.publishCheckpoint(fresh.version, raw)
		if err != nil {
			return err
		}
		if err := s.wal.TruncateBefore(oldest + 1); err != nil {
			return err
		}
		if err := s.wal.SkipTo(fresh.version + 1); err != nil {
			return err
		}
		s.sinceCkpt = 0
	}

	s.shards = fresh.shards
	s.samples = fresh.samples
	s.nitems = fresh.nitems
	s.version = fresh.version
	s.snap.Store(s.buildSnapshotLocked(nil, nil))
	s.notifyApplied()
	return nil
}

// WALOldestSeq reports the oldest record sequence the server's log still
// retains (ok=false on non-durable servers). A follower below this needs a
// checkpoint seed, not a suffix.
func (s *Server) WALOldestSeq() (seq uint64, ok bool) {
	s.mu.Lock()
	log := s.wal
	s.mu.Unlock()
	if log == nil {
		return 0, false
	}
	return log.OldestSeq(), true
}

// WALStreamFrom streams the server's retained log records with sequence >=
// from, in order, returning the next sequence to resume from — the
// shipper's read path (see wal.Log.StreamFrom; wal.ErrCompacted means the
// suffix is gone and the follower needs a checkpoint seed). Replication
// requires durability: non-durable servers have no log to ship.
func (s *Server) WALStreamFrom(from uint64, fn func(seq uint64, payload []byte) error) (next uint64, err error) {
	s.mu.Lock()
	log := s.wal
	s.mu.Unlock()
	if log == nil {
		return 0, errors.New("serve: replication needs a durable server (Config.WAL)")
	}
	return log.StreamFrom(from, fn)
}
