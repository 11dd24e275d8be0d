package serve

// Snapshot persistence and warm start. Because a snapshot is immutable,
// saving needs no locks and can run while the server keeps serving reads
// and applying writes — the bytes describe exactly one published version.
//
//	stream: magic "HSRV" | uint32 format | uint64 version | uint64 samples
//	        | uint64 pairs (0) | uint8 flags (0) | HCLS classifier stream
//	        | uint64 item count | framed symbols
//
// The pairs count and flags once described a regression section the
// server no longer hosts. They are still written as zeros, so the stream
// keeps its format number, and Restore refuses a stream where either is
// nonzero. The classifier section reuses internal/model's wire format, so
// a snapshot's model section is readable by plain model.ReadClassifier
// too. Like ReadClassifier, a warm start re-seeds the shard accumulators
// with UNIT weight — the loaded server predicts bit-identically to the
// saved snapshot, but continued training moves faster than it would have
// on the original accumulators (the training counts are not persisted).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/model"
)

const (
	snapshotMagic  = "HSRV"
	snapshotFormat = 1
)

// WriteTo serializes the snapshot. It is safe to call at any time,
// including while the originating server keeps serving and applying.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	header := make([]byte, 4+4+8+8+8+1)
	copy(header, snapshotMagic)
	binary.LittleEndian.PutUint32(header[4:], snapshotFormat)
	binary.LittleEndian.PutUint64(header[8:], s.version)
	binary.LittleEndian.PutUint64(header[16:], s.samples)
	var n int64
	k, err := w.Write(header)
	n += int64(k)
	if err != nil {
		return n, err
	}

	// Classifier section: the global prototypes in class order, in the
	// wire format of model.Classifier.WriteTo.
	protos := make([]*bitvec.Vector, s.classes)
	for c := range protos {
		protos[c] = s.ClassVector(c)
	}
	k64, err := model.WritePrototypes(w, protos)
	n += k64
	if err != nil {
		return n, err
	}

	// Item symbols in shard-major creation order. Vectors are not stored:
	// they are a pure function of (seed, symbol), so a same-seed server
	// regenerates them bit-identically on load.
	var count uint64
	for i := range s.shards {
		count += uint64(len(s.shards[i].syms))
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], count)
	k, err = w.Write(buf[:])
	n += int64(k)
	if err != nil {
		return n, err
	}
	for i := range s.shards {
		for _, sym := range s.shards[i].syms {
			binary.LittleEndian.PutUint32(buf[:4], uint32(len(sym)))
			k, err = w.Write(buf[:4])
			n += int64(k)
			if err != nil {
				return n, err
			}
			k, err = io.WriteString(w, sym)
			n += int64(k)
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// Restore warm-starts a FRESH server from a stream written by
// Snapshot.WriteTo: the loaded server publishes a snapshot that predicts
// and looks up bit-identically to the saved one, and can keep
// taking writes (with the unit-weight re-seeding caveat documented above).
// The server must be empty (no applied batches) and shaped compatibly
// (same dimension and class count; the item-vector seed must match the
// saving server's for lookups to agree).
func (s *Server) Restore(r io.Reader) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.version != 0 || s.samples != 0 || s.nitems != 0 {
		return errors.New("serve: Restore needs a fresh server (writes already applied)")
	}
	if s.wal != nil {
		// A durable server's state must come through its own log/checkpoint
		// recovery (Open); a side-channel restore would diverge from the log.
		return errors.New("serve: Restore on a durable server (recover through Open instead)")
	}

	header := make([]byte, 4+4+8+8+8+1)
	if _, err := io.ReadFull(r, header); err != nil {
		return fmt.Errorf("serve: reading snapshot header: %w", err)
	}
	if string(header[:4]) != snapshotMagic {
		return errors.New("serve: bad magic (not a server snapshot stream)")
	}
	if f := binary.LittleEndian.Uint32(header[4:]); f != snapshotFormat {
		return fmt.Errorf("serve: unsupported snapshot format %d", f)
	}
	version := binary.LittleEndian.Uint64(header[8:])
	samples := binary.LittleEndian.Uint64(header[16:])
	if pairs, flags := binary.LittleEndian.Uint64(header[24:]), header[32]; pairs != 0 || flags != 0 {
		return fmt.Errorf("serve: snapshot carries regression state (%d pairs, flags %#x), which the server does not host", pairs, flags)
	}

	clf, err := model.ReadClassifier(r, 0)
	if err != nil {
		return fmt.Errorf("serve: reading classifier section: %w", err)
	}
	if clf.NumClasses() != s.cfg.Classes || clf.Dim() != s.cfg.Dim {
		return fmt.Errorf("serve: snapshot is %d classes × %d dims, server %d × %d",
			clf.NumClasses(), clf.Dim(), s.cfg.Classes, s.cfg.Dim)
	}

	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return fmt.Errorf("serve: reading item count: %w", err)
	}
	count := binary.LittleEndian.Uint64(buf[:])
	if count > 1<<28 {
		return fmt.Errorf("serve: implausible item count %d", count)
	}
	syms := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(r, buf[:4]); err != nil {
			return fmt.Errorf("serve: reading item %d: %w", i, err)
		}
		l := binary.LittleEndian.Uint32(buf[:4])
		if l > maxSymbolLen {
			return fmt.Errorf("serve: implausible symbol length %d", l)
		}
		raw := make([]byte, l)
		if _, err := io.ReadFull(r, raw); err != nil {
			return fmt.Errorf("serve: reading item %d: %w", i, err)
		}
		syms = append(syms, string(raw))
	}

	// Everything parsed — mutate. Seed each class's shard accumulator with
	// the loaded prototype at unit weight: no counter is zero, so the
	// deterministic re-finalize reproduces the prototype bit for bit.
	for c := 0; c < s.cfg.Classes; c++ {
		sh := s.shards[s.shardOf[c]]
		sh.cls.Add(sh.local[c], clf.ClassVector(c))
	}
	for _, sym := range syms {
		s.shards[s.ring.ShardForItem(sym)].items.Get(sym)
	}
	s.version = version
	s.samples = samples
	s.nitems = len(syms)
	s.snap.Store(s.buildSnapshotLocked(nil, nil))
	return nil
}
