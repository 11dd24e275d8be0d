package serve

// Durability: the write-ahead log and checkpoint layer over the snapshot
// server. Every ApplyBatch is encoded and appended to an internal/wal log
// BEFORE it mutates the master models, so an acknowledged batch survives a
// crash; recovery replays the log into a fresh server, and because
// ApplyBatch is deterministic (fixed tie vectors, single-writer ordering),
// the recovered snapshot is bit-identical to the pre-crash one.
//
// Checkpoints bound recovery cost: a checkpoint file persists the portable
// snapshot (the existing HSRV stream, which embeds the HCLS model wire
// format) PLUS the exact training state, the per-class integer
// accumulators. The exact sections are what keep checkpointed recovery
// bit-identical: the HSRV stream alone re-seeds accumulators at unit
// weight, which predicts identically but would diverge once the replayed
// log suffix keeps training. Once a checkpoint at version C is durable,
// every log segment fully below C is dropped, so recovery reads one
// checkpoint plus the log suffix instead of the whole history.
//
//	checkpoint: magic "HCKP" | uint32 format | uint64 dim | uint32 classes
//	            | uint32 shards | uint8 flags (0) | HSRV snapshot stream
//	            | per shard: uint8 hasClassifier [HCST classifier state]
//
// The flags byte once announced regression and cleanup-memory sections,
// state the server no longer hosts. It is written as zero and a nonzero
// one is refused, like the zero slots of the batch codec below.
//
// Log record sequence numbers equal snapshot versions: record N is the
// batch whose application published version N.
//
// Each durability step has one implementation. Files are published with
// vfs.WriteFileAtomic and damaged checkpoints set aside with vfs.SetAside,
// the rules the log and the cluster manifest follow too. publishCheckpoint
// writes every checkpoint and applies retention, for Checkpoint and for a
// follower's InstallCheckpoint alike; reopenLogLocked opens and replays
// the log for both Open and Recover; and checkRecordLocked is the gate a
// record passes before it applies, whether replayed or replicated.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/vfs"
	"hdcirc/internal/wal"
)

const (
	ckptMagic  = "HCKP"
	ckptFormat = 1
	ckptPrefix = "ckpt-"
	ckptExt    = ".hckp"
)

// ckptCRCTable checksums whole checkpoint files (Castagnoli, matching the
// log's record CRCs).
var ckptCRCTable = crc32.MakeTable(crc32.Castagnoli)

// errCkptCorrupt marks a checkpoint whose BYTES are damaged (short file,
// CRC mismatch, foreign magic/format). Only these are set aside so
// recovery can fall back to an older checkpoint; every other load failure
// — a dimension/class/shard mismatch, state this server does not host —
// means the server was opened with the wrong config or the wrong build,
// and destroying the recovery set over operator input would be
// unforgivable: those abort Open intact.
var errCkptCorrupt = errors.New("serve: checkpoint corrupt")

// WALConfig enables durable serving: every applied batch is written ahead
// to a segmented log in Dir and checkpoints bound recovery cost. The zero
// value of each knob selects the documented default.
type WALConfig struct {
	// Dir is the durability directory (required): log segments and
	// checkpoint files live here.
	Dir string
	// SyncEvery batches fsync: the log is synced once per SyncEvery
	// appended batches. 1 (the default) makes every acknowledged batch
	// durable before ApplyBatch returns; larger values trade the tail of a
	// machine crash for throughput; negative disables fsync (a process
	// crash still loses nothing — the OS has the bytes).
	SyncEvery int
	// SegmentBytes rotates log segments past this size; <= 0 selects 4 MiB.
	SegmentBytes int64
	// CheckpointEvery persists a checkpoint (in the background) after this
	// many applied batches, then drops fully-covered log segments; 0
	// selects 256, negative disables automatic checkpoints (Checkpoint can
	// still be called explicitly).
	CheckpointEvery int
	// KeepCheckpoints retains this many newest checkpoint files; <= 0
	// selects 2 (the newest plus one fallback).
	KeepCheckpoints int
	// FS is the filesystem the log and checkpoints live on; nil selects
	// the real one. Chaos tests hand in a vfs.FaultFS to inject storage
	// faults into the whole durability path.
	FS vfs.FS
	// RetryInterval, when > 0, arms the degraded-mode recovery probe: a
	// server that entered degraded state on a WAL fault re-tries recovery
	// every RetryInterval until it succeeds or RetryMax attempts are
	// spent. 0 (the default) disables the probe — recovery then only
	// happens through an explicit Recover call.
	RetryInterval time.Duration
	// RetryMax bounds the probe's attempts; <= 0 selects 8.
	RetryMax int
}

// fs resolves the configured filesystem (nil means the real one).
func (w WALConfig) fs() vfs.FS { return vfs.Default(w.FS) }

func (w WALConfig) retryMax() int {
	if w.RetryMax > 0 {
		return w.RetryMax
	}
	return 8
}

func (w WALConfig) checkpointEvery() int {
	switch {
	case w.CheckpointEvery > 0:
		return w.CheckpointEvery
	case w.CheckpointEvery < 0:
		return math.MaxInt
	default:
		return 256
	}
}

func (w WALConfig) keepCheckpoints() int {
	if w.KeepCheckpoints > 0 {
		return w.KeepCheckpoints
	}
	return 2
}

// Open builds a Server and, when cfg.WAL is set, makes it durable:
// existing state in cfg.WAL.Dir is recovered (newest loadable checkpoint,
// then the log suffix replayed batch by batch), and every subsequent
// ApplyBatch is written ahead to the log. With cfg.WAL == nil it is
// exactly NewServer.
func Open(cfg Config) (*Server, error) {
	if cfg.WAL == nil {
		return NewServer(cfg)
	}
	w := *cfg.WAL
	if w.Dir == "" {
		return nil, errors.New("serve: WAL config needs a directory")
	}
	fs := w.fs()
	if err := fs.MkdirAll(w.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating durability directory: %w", err)
	}
	if err := removeStaleCheckpointTmp(fs, w.Dir); err != nil {
		return nil, err
	}

	// Newest loadable checkpoint wins; unreadable ones are set aside (never
	// deleted) and the next older one is tried on a fresh server, so a
	// half-written or bit-rotted checkpoint cannot poison recovery.
	s, ckptVersion, err := loadLatestCheckpoint(cfg, fs, w.Dir)
	if err != nil {
		return nil, err
	}
	s.walCfg = w
	// The loaded checkpoint covers every version up to its own, so a log
	// that ends at or before it lost nothing.
	s.lastCkpt.Store(ckptVersion)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.reopenLogLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// reopenLogLocked opens the log in the durability directory, replays every
// record past the applied version into the models, and installs it as
// s.wal, positioned to append the next version. Open runs it after loading
// a checkpoint, Recover after a storage fault. A log that ends before the
// applied version with no checkpoint covering the gap, or starts past it
// because compaction dropped records no loaded checkpoint covers, has lost
// acknowledged writes: ErrUnrecoverable, and the models are left as they
// were. Called under s.mu.
func (s *Server) reopenLogLocked() error {
	w := s.walCfg
	log, err := wal.Open(w.Dir, wal.Options{SegmentBytes: w.SegmentBytes, SyncEvery: w.SyncEvery, FS: w.FS})
	if err != nil {
		return fmt.Errorf("serve: opening log: %w", err)
	}
	// Failing here instead of resuming is the whole point of the
	// acked-durability contract.
	switch next, oldest := log.NextSeq(), log.OldestSeq(); {
	case next <= s.version && s.lastCkpt.Load() < s.version:
		err = fmt.Errorf("%w: log resumes at seq %d but version %d was acknowledged", ErrUnrecoverable, next, s.version)
	case oldest > s.version+1:
		err = fmt.Errorf("%w: log starts at seq %d but only version %d is applied", ErrUnrecoverable, oldest, s.version)
	}
	if err != nil {
		log.Close()
		return err
	}
	// Records past the applied version were written but never applied (a
	// crash restart's suffix, or the batch a faulty append wrote without
	// acknowledging it); they apply exactly as they would have live. The
	// switch above refused a log that starts past version+1, so the stream
	// cannot find the suffix compacted away.
	_, err = log.StreamFrom(s.version+1, func(seq uint64, payload []byte) error {
		var b Batch
		if err := s.checkRecordLocked(seq, payload, &b); err != nil {
			return fmt.Errorf("serve: replaying the log: %w", err)
		}
		if _, err := s.applyLocked(&b); err != nil {
			return fmt.Errorf("serve: replaying log record %d: %w", seq, err)
		}
		return nil
	})
	if err == nil {
		// A checkpoint newer than every surviving record (compaction, or an
		// empty log) needs numbering resumed past it.
		err = log.SkipTo(s.version + 1)
	}
	if err != nil {
		log.Close()
		return err
	}
	s.wal = log
	return nil
}

// checkRecordLocked is the gate every log record passes before it applies,
// whether replayed from the local log or shipped by a primary: seq must
// extend the applied version exactly (else ErrReplSeq), and the payload
// must decode into dst and validate against the server's shape. Called
// under s.mu.
func (s *Server) checkRecordLocked(seq uint64, payload []byte, dst *Batch) error {
	if seq != s.version+1 {
		return fmt.Errorf("%w: record %d cannot follow version %d", ErrReplSeq, seq, s.version)
	}
	if err := decodeBatch(payload, s.cfg.Dim, dst); err != nil {
		return fmt.Errorf("serve: decoding record %d: %w", seq, err)
	}
	if err := s.validate(dst); err != nil {
		return fmt.Errorf("serve: record %d: %w", seq, err)
	}
	return nil
}

// checkpointName returns the checkpoint file name for a version.
func checkpointName(version uint64) string {
	return fmt.Sprintf("%s%020d%s", ckptPrefix, version, ckptExt)
}

// removeStaleCheckpointTmp deletes ckpt-*.hckp.tmp files left behind by a
// crash mid-checkpoint. They were never renamed into place, so they hold
// no recoverable state — only the rename publishes a checkpoint — and
// each abandoned one otherwise leaks a full model image of disk forever.
func removeStaleCheckpointTmp(fs vfs.FS, dir string) error {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("serve: reading durability directory: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() || !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptExt+vfs.TempSuffix) {
			continue
		}
		if err := fs.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("serve: removing stale checkpoint temp file: %w", err)
		}
	}
	return nil
}

// checkpointVersions lists checkpoint versions present in dir, descending.
func checkpointVersions(fs vfs.FS, dir string) ([]uint64, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: reading durability directory: %w", err)
	}
	var versions []uint64
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() || !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptExt) {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptExt), 10, 64)
		if err != nil {
			continue
		}
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] > versions[j] })
	return versions, nil
}

// loadLatestCheckpoint returns a server warm-started from the newest
// loadable checkpoint in dir (and that checkpoint's version), or a fresh
// empty server when none loads. Each candidate is tried on its own fresh
// server so a failed partial load never pollutes the survivor.
func loadLatestCheckpoint(cfg Config, fs vfs.FS, dir string) (*Server, uint64, error) {
	versions, err := checkpointVersions(fs, dir)
	if err != nil {
		return nil, 0, err
	}
	for _, v := range versions {
		s, err := NewServer(cfg)
		if err != nil {
			return nil, 0, err
		}
		path := filepath.Join(dir, checkpointName(v))
		switch err := loadCheckpointFile(s, fs, path); {
		case err == nil:
			return s, v, nil
		case errors.Is(err, errCkptCorrupt):
			// Damaged bytes: keep them for forensics, fall back to the
			// next older checkpoint. A corrupt file left in place would
			// hold a KeepCheckpoints slot, and the next Checkpoint would
			// retire the good fallback and compact the log past it, so a
			// failed set-aside aborts like any other I/O fault.
			if err := vfs.SetAside(fs, path); err != nil {
				return nil, 0, fmt.Errorf("serve: setting aside corrupt checkpoint: %w", err)
			}
		default:
			// Shape/config mismatch or I/O fault — not corruption. Abort
			// with the checkpoint set intact so a correctly-configured
			// retry can still recover.
			return nil, 0, err
		}
	}
	s, err := NewServer(cfg)
	return s, 0, err
}

// loadCheckpointFile restores a fresh server's exact state from one
// checkpoint file. The whole file is verified against its CRC trailer
// before a byte of it is parsed, so bit rot anywhere — even in sections
// later superseded by the exact-state ones — is detected, not absorbed.
func loadCheckpointFile(s *Server, fs vfs.FS, path string) error {
	raw, err := vfs.ReadFile(fs, path)
	if err != nil {
		return err
	}
	return loadCheckpointBytes(s, raw)
}

// loadCheckpointBytes is loadCheckpointFile over an in-memory image — the
// shape checkpoints travel in over the replication stream, where a seeding
// follower verifies and parses the primary's bytes without a file.
func loadCheckpointBytes(s *Server, raw []byte) error {
	if len(raw) < 4 {
		return fmt.Errorf("%w: file too short", errCkptCorrupt)
	}
	body := raw[:len(raw)-4]
	if got := binary.LittleEndian.Uint32(raw[len(raw)-4:]); got != crc32.Checksum(body, ckptCRCTable) {
		return fmt.Errorf("%w: CRC mismatch", errCkptCorrupt)
	}
	r := bytes.NewReader(body)

	header := make([]byte, 4+4+8+4+4+1)
	if _, err := io.ReadFull(r, header); err != nil {
		return fmt.Errorf("%w: reading header: %v", errCkptCorrupt, err)
	}
	if string(header[:4]) != ckptMagic {
		return fmt.Errorf("%w: bad magic", errCkptCorrupt)
	}
	if format := binary.LittleEndian.Uint32(header[4:]); format != ckptFormat {
		return fmt.Errorf("%w: unsupported format %d", errCkptCorrupt, format)
	}
	if d := binary.LittleEndian.Uint64(header[8:]); d != uint64(s.cfg.Dim) {
		return fmt.Errorf("serve: checkpoint dimension %d, server %d", d, s.cfg.Dim)
	}
	if k := binary.LittleEndian.Uint32(header[16:]); k != uint32(s.cfg.Classes) {
		return fmt.Errorf("serve: checkpoint has %d classes, server %d", k, s.cfg.Classes)
	}
	if sh := binary.LittleEndian.Uint32(header[20:]); sh != uint32(len(s.shards)) {
		return fmt.Errorf("serve: checkpoint has %d shards, server %d", sh, len(s.shards))
	}
	if flags := header[24]; flags != 0 {
		return fmt.Errorf("serve: checkpoint flags %#x announce regression or cleanup-memory state, which the server does not host", flags)
	}

	// The portable snapshot section re-creates version, counters, item
	// symbols and (at unit weight) the prototypes...
	if err := s.Restore(r); err != nil {
		return err
	}
	// ...and the exact-state sections then replace the unit-weight seeds
	// with the true accumulators, so continued training (the replayed log
	// suffix) stays bit-identical to the original sequence.
	s.mu.Lock()
	defer s.mu.Unlock()
	var has [1]byte
	for i, st := range s.shards {
		if _, err := io.ReadFull(r, has[:]); err != nil {
			return fmt.Errorf("serve: reading shard %d state marker: %w", i, err)
		}
		switch {
		case has[0] == 0 && st.cls == nil:
			continue
		case has[0] == 1 && st.cls != nil:
			if err := st.cls.RestoreStateFrom(r); err != nil {
				return fmt.Errorf("serve: shard %d classifier state: %w", i, err)
			}
		default:
			return fmt.Errorf("serve: checkpoint shard %d classifier presence disagrees with server layout", i)
		}
	}
	s.snap.Store(s.buildSnapshotLocked(nil, nil))
	return nil
}

// Checkpoint persists the server's exact current state to the durability
// directory (see publishCheckpoint) and then compacts the log up to the
// oldest checkpoint kept. It returns the checkpointed version, or 0 with
// the error when no checkpoint file was published. Serialization holds the
// writer lock only while encoding to memory; the file I/O runs unlocked,
// so reads and writes keep flowing. Safe for concurrent callers
// (checkpoints serialize internally).
func (s *Server) Checkpoint() (uint64, error) {
	s.mu.Lock()
	durable := s.wal != nil
	s.mu.Unlock()
	if !durable {
		return 0, errors.New("serve: Checkpoint needs a durable server (Config.WAL)")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	// No-op checkpoints (nothing applied since the last one, or an empty
	// server whose recovery equals a fresh start) return before the full
	// state encode — which would otherwise stall every writer on s.mu just
	// to throw the buffer away.
	s.mu.Lock()
	version := s.version
	s.mu.Unlock()
	if version == 0 || version <= s.lastCkpt.Load() {
		return version, nil
	}

	version, image, err := s.EncodeCheckpoint()
	if err != nil {
		return 0, err
	}
	oldest, err := s.publishCheckpoint(version, image)
	switch {
	case err != nil && s.lastCkpt.Load() < version:
		return 0, err // nothing was published
	case err != nil:
		return version, err
	}
	s.mu.Lock()
	log := s.wal // recovery may have swapped the handle; compact the live one
	s.mu.Unlock()
	if err := log.TruncateBefore(oldest + 1); err != nil {
		return version, err
	}
	// A manual checkpoint restarts the background cadence — the next
	// automatic one should be CheckpointEvery batches from NOW.
	s.mu.Lock()
	s.sinceCkpt = 0
	s.mu.Unlock()
	return version, nil
}

// publishCheckpoint makes a checkpoint image durable as the file for
// version (vfs.WriteFileAtomic), records it in lastCkpt, retires the
// checkpoints beyond WALConfig.KeepCheckpoints, and returns the oldest
// version kept. Callers compact their log only up to that one: the
// fallback checkpoints are worthless unless the records between them and
// the newest stay replayable. lastCkpt advances only once the file is in
// place. Called with s.ckptMu held.
func (s *Server) publishCheckpoint(version uint64, image []byte) (oldestKept uint64, err error) {
	fs := s.walCfg.fs()
	if err := vfs.WriteFileAtomic(fs, filepath.Join(s.walCfg.Dir, checkpointName(version)), image); err != nil {
		return 0, fmt.Errorf("serve: checkpoint: %w", err)
	}
	s.lastCkpt.Store(version)
	versions, err := checkpointVersions(fs, s.walCfg.Dir)
	if err != nil {
		return 0, err
	}
	keep := min(len(versions), s.walCfg.keepCheckpoints())
	for _, v := range versions[keep:] {
		if err := fs.Remove(filepath.Join(s.walCfg.Dir, checkpointName(v))); err != nil {
			return 0, fmt.Errorf("serve: retiring old checkpoint: %w", err)
		}
	}
	return versions[keep-1], nil // non-empty: it lists the file just published
}

// EncodeCheckpoint serializes the server's exact current state to memory
// under the writer lock: the bytes of a checkpoint file, CRC trailer
// included, which is also the image a primary ships to seed a follower
// whose position it has compacted past. The returned version is the
// state's snapshot version.
func (s *Server) EncodeCheckpoint() (version uint64, data []byte, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	var buf bytes.Buffer
	header := make([]byte, 4+4+8+4+4+1)
	copy(header, ckptMagic)
	binary.LittleEndian.PutUint32(header[4:], ckptFormat)
	binary.LittleEndian.PutUint64(header[8:], uint64(s.cfg.Dim))
	binary.LittleEndian.PutUint32(header[16:], uint32(s.cfg.Classes))
	binary.LittleEndian.PutUint32(header[20:], uint32(len(s.shards)))
	buf.Write(header)

	snap := s.snap.Load()
	if _, err := snap.WriteTo(&buf); err != nil {
		return 0, nil, fmt.Errorf("serve: encoding checkpoint snapshot: %w", err)
	}
	for i, st := range s.shards {
		if st.cls == nil {
			buf.WriteByte(0)
			continue
		}
		buf.WriteByte(1)
		if _, err := st.cls.WriteStateTo(&buf); err != nil {
			return 0, nil, fmt.Errorf("serve: encoding shard %d state: %w", i, err)
		}
	}
	crc := crc32.Checksum(buf.Bytes(), ckptCRCTable)
	return s.version, binary.LittleEndian.AppendUint32(buf.Bytes(), crc), nil
}

// maybeCheckpointLocked spawns at most one background checkpoint once
// enough batches accumulated since the last one. Called under s.mu.
func (s *Server) maybeCheckpointLocked() {
	if s.wal == nil {
		return
	}
	s.sinceCkpt++
	if s.sinceCkpt < s.walCfg.checkpointEvery() || !s.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	s.sinceCkpt = 0
	s.ckptWG.Add(1)
	go func() {
		defer s.ckptWG.Done()
		defer s.ckptBusy.Store(false)
		if _, err := s.Checkpoint(); err != nil {
			s.errMu.Lock()
			s.ckptErr = err
			s.errMu.Unlock()
		}
	}()
}

// Close flushes and closes the durability layer: in-flight background
// checkpoints finish, the log is synced and closed, and further ApplyBatch
// calls fail. Reads stay valid (the published snapshot survives). It
// returns any background checkpoint error that would otherwise be lost.
// Closing a non-durable server just stops writes. Safe to call twice.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	s.stopProbe.Do(func() { close(s.probeStop) })
	s.probeWG.Wait()
	s.ckptWG.Wait()
	s.mu.Lock()
	log := s.wal // recovery may have swapped the handle
	s.mu.Unlock()
	var err error
	if log != nil {
		err = log.Close()
	}
	s.errMu.Lock()
	if err == nil && s.ckptErr != nil {
		err = fmt.Errorf("serve: background checkpoint: %w", s.ckptErr)
	}
	s.errMu.Unlock()
	return err
}

// ---------------------------------------------------------------------------
// Batch wire codec
// ---------------------------------------------------------------------------

// Batch payload framing (all little-endian; hypervectors are raw words,
// the dimension being fixed by the server config the log belongs to):
//
//	uint32 nTrain   | nTrain   × (uint32 class | words)
//	uint32 nUntrain (0)
//	uint32 nPairs   (0)
//	uint32 nItems   | nItems   × (uint32 len | bytes)
//	uint32 nWrites  (0)
//	uint8 hasRefine (0)
//
// The four zero slots once framed un-training, regression pairs, SDM
// writes and a refinement pass, write kinds the server no longer applies.
// They are still written, so records keep their layout, and decodeBatch
// refuses a record where any of them is nonzero.

// encodeBatch serializes a validated batch for the write-ahead log.
func encodeBatch(b *Batch) []byte {
	var buf bytes.Buffer
	var u32 [4]byte
	var u64 [8]byte
	putN := func(n int) {
		binary.LittleEndian.PutUint32(u32[:], uint32(n))
		buf.Write(u32[:])
	}

	putN(len(b.Train))
	for _, smp := range b.Train {
		putN(smp.Class)
		for _, w := range smp.HV.Words() {
			binary.LittleEndian.PutUint64(u64[:], w)
			buf.Write(u64[:])
		}
	}
	putN(0) // nUntrain
	putN(0) // nPairs
	putN(len(b.Items))
	for _, sym := range b.Items {
		putN(len(sym))
		buf.WriteString(sym)
	}
	putN(0)          // nWrites
	buf.WriteByte(0) // hasRefine
	return buf.Bytes()
}

// batchDecoder is a bounds-checked cursor over a batch payload. Every read
// returns an error instead of panicking: the payload passed CRC, but the
// decoder is also the last line of defense against a logic bug elsewhere.
type batchDecoder struct {
	data []byte
	off  int
	d    int
}

func (r *batchDecoder) u32() (uint32, error) {
	if r.off+4 > len(r.data) {
		return 0, errors.New("serve: truncated batch payload")
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

// count reads an element count and sanity-bounds it by the bytes that
// remain, so a corrupt count cannot drive a huge allocation.
func (r *batchDecoder) count(minElemBytes int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if minElemBytes > 0 && int(n) > (len(r.data)-r.off)/minElemBytes {
		return 0, fmt.Errorf("serve: batch payload count %d exceeds remaining bytes", n)
	}
	return int(n), nil
}

// zero reads one of the removed write kinds' slots, width bytes wide, and
// refuses the record unless it is zero.
func (r *batchDecoder) zero(width int, what string) error {
	if r.off+width > len(r.data) {
		return errors.New("serve: truncated batch payload")
	}
	for _, c := range r.data[r.off : r.off+width] {
		if c != 0 {
			return fmt.Errorf("serve: batch payload carries %s, which the server does not apply", what)
		}
	}
	r.off += width
	return nil
}

func (r *batchDecoder) vec() (*bitvec.Vector, error) {
	v := bitvec.New(r.d)
	words := v.Words()
	if r.off+8*len(words) > len(r.data) {
		return nil, errors.New("serve: truncated hypervector in batch payload")
	}
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(r.data[r.off:])
		r.off += 8
	}
	if tail := uint(r.d % 64); tail != 0 {
		if words[len(words)-1]&^(uint64(1)<<tail-1) != 0 {
			return nil, errors.New("serve: batch payload hypervector has bits past the dimension")
		}
	}
	return v, nil
}

// decodeBatch parses a payload produced by encodeBatch into dst.
func decodeBatch(payload []byte, d int, dst *Batch) error {
	r := &batchDecoder{data: payload, d: d}
	vecBytes := 8 * ((d + 63) / 64)

	n, err := r.count(4 + vecBytes)
	if err != nil {
		return err
	}
	dst.Train = make([]Sample, n)
	for i := range dst.Train {
		class, err := r.u32()
		if err != nil {
			return err
		}
		hv, err := r.vec()
		if err != nil {
			return err
		}
		dst.Train[i] = Sample{Class: int(class), HV: hv}
	}
	if err := r.zero(4, "untrain samples"); err != nil {
		return err
	}
	if err := r.zero(4, "regression pairs"); err != nil {
		return err
	}
	if n, err = r.count(4); err != nil {
		return err
	}
	dst.Items = make([]string, n)
	for i := range dst.Items {
		l, err := r.count(1)
		if err != nil {
			return err
		}
		if r.off+l > len(r.data) {
			return errors.New("serve: truncated item symbol in batch payload")
		}
		dst.Items[i] = string(r.data[r.off : r.off+l])
		r.off += l
	}
	if err := r.zero(4, "cleanup-memory writes"); err != nil {
		return err
	}
	if err := r.zero(1, "a refinement pass"); err != nil {
		return err
	}
	if r.off != len(r.data) {
		return errors.New("serve: trailing bytes in batch payload")
	}
	return nil
}
