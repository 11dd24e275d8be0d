// Package wal is an append-only, CRC-framed, fsync-batched write-ahead
// log with segment rotation and crash-safe recovery. It stores opaque
// payloads under monotonically increasing sequence numbers; the serving
// layer (internal/serve) logs one encoded write batch per record so that a
// crash loses nothing that was acknowledged.
//
// # On-disk layout
//
// A log is a directory of segment files named wal-<firstSeq>.seg:
//
//	segment: magic "HWSG" | uint32 format | uint64 firstSeq
//	record:  uint32 payloadLen | uint32 crc32c(seq ‖ payload)
//	         | uint64 seq | payload
//
// Records never span segments. Rotation closes the current segment once it
// exceeds Options.SegmentBytes and opens a fresh one whose header names
// the next sequence number, so any record can be found from file names
// alone and old segments can be dropped wholesale once a checkpoint
// covers them (TruncateBefore).
//
// # Torn-write guarantee
//
// Appends are a single sequential write; fsync is batched per
// Options.SyncEvery. After a crash, Open scans every segment in order and
// accepts records until the first frame that is short, fails its CRC, or
// breaks the sequence chain — everything from that point on is discarded:
// the torn tail of the last segment is truncated in place, and any
// later segment is set aside (vfs.SetAside: renamed *.corrupt, or
// *.corrupt.N beside earlier evidence, never silently deleted).
// A partial record is therefore never replayed, and what remains is
// always a strict prefix of what was appended — exactly the property that
// makes replay-into-a-deterministic-state-machine correct.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hdcirc/internal/vfs"
)

const (
	segmentMagic  = "HWSG"
	segmentFormat = 1
	segmentExt    = ".seg"
	segmentPrefix = "wal-"

	segHeaderLen = 4 + 4 + 8
	recHeaderLen = 4 + 4 + 8

	// MaxRecordBytes bounds a single payload; the length prefix of a torn
	// frame is attacker- (or bit-rot-) controlled, so recovery refuses to
	// allocate past this.
	MaxRecordBytes = 1 << 26 // 64 MiB
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms this repo targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a Log. The zero value is safe: 4 MiB segments, fsync on
// every append.
type Options struct {
	// SegmentBytes rotates to a fresh segment once the current one grows
	// past this size; <= 0 selects 4 MiB.
	SegmentBytes int64
	// SyncEvery batches fsync: the file is synced once per SyncEvery
	// appends (1 = every append, the durability default; 0 selects 1).
	// Negative disables fsync entirely — appends ride the OS page cache
	// and a machine crash may lose the unsynced suffix (a process crash
	// does not).
	SyncEvery int
	// FS is the filesystem the log lives on; nil selects the real one.
	// Tests hand in a vfs.FaultFS to inject storage faults.
	FS vfs.FS
}

func (o *Options) norm() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = 1
	}
	o.FS = vfs.Default(o.FS)
}

// segment is one on-disk segment file.
type segment struct {
	path     string
	firstSeq uint64
	records  uint64 // valid records (set during Open's scan)
}

// Log is an append-only segmented record log. Append/Sync/TruncateBefore/
// StreamFrom/Close are safe for concurrent use.
type Log struct {
	dir  string
	opts Options
	fs   vfs.FS

	mu       sync.Mutex
	segs     []segment // all live segments, ascending firstSeq
	cur      vfs.File  // open tail segment (nil until first append after SkipTo)
	curSize  int64
	nextSeq  uint64
	unsynced int
	closed   bool
	failed   error // sticky write/rotate/sync failure; see Append
}

// Open opens (creating if necessary) the log in dir and runs crash
// recovery: segments are scanned in order, the torn tail of the last
// segment is truncated away, and segments after a corrupt one are renamed
// aside. The returned log appends at one past the last intact record.
func Open(dir string, opts Options) (*Log, error) {
	opts.norm()
	fs := opts.FS
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating directory: %w", err)
	}
	names, err := segmentNames(fs, dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, fs: fs, nextSeq: 1}
	for i, name := range names {
		path := filepath.Join(dir, name)
		// The first surviving segment may start anywhere (earlier ones get
		// dropped by checkpoint compaction); later ones must chain exactly.
		wantSeq := l.nextSeq
		if i == 0 {
			wantSeq = 0
		}
		seg, intactBytes, scanErr := readSegment(fs, path, wantSeq, math.MaxUint64, 0, nil)
		if scanErr != nil {
			// This segment is unusable from intactBytes on. Keep its intact
			// prefix when it has one; set aside everything after the fault.
			if seg.records > 0 || intactBytes > segHeaderLen {
				if err := fs.Truncate(path, intactBytes); err != nil {
					return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", name, err)
				}
				l.segs = append(l.segs, seg)
				l.nextSeq = seg.firstSeq + seg.records
			} else if err := vfs.SetAside(fs, path); err != nil {
				return nil, fmt.Errorf("wal: corrupt segment: %w", err)
			}
			for _, later := range names[i+1:] {
				if err := vfs.SetAside(fs, filepath.Join(dir, later)); err != nil {
					return nil, fmt.Errorf("wal: segment after corruption: %w", err)
				}
			}
			break
		}
		l.segs = append(l.segs, seg)
		l.nextSeq = seg.firstSeq + seg.records
	}
	if len(l.segs) > 0 && l.segs[len(l.segs)-1].records == 0 {
		// A crash between rotation and the first record leaves an empty tail
		// segment whose name the next rotation would want back; drop it.
		tail := l.segs[len(l.segs)-1]
		if err := fs.Remove(tail.path); err != nil {
			return nil, fmt.Errorf("wal: removing empty tail segment: %w", err)
		}
		l.segs = l.segs[:len(l.segs)-1]
	}
	return l, nil
}

// segmentNames lists the segment files in dir, ascending by firstSeq.
func segmentNames(fs vfs.FS, dir string) ([]string, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading directory: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() || !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentExt) {
			continue
		}
		if _, err := seqFromName(name); err != nil {
			continue // foreign file; leave it alone
		}
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, _ := seqFromName(names[i])
		b, _ := seqFromName(names[j])
		return a < b
	})
	return names, nil
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("%s%020d%s", segmentPrefix, firstSeq, segmentExt)
}

func seqFromName(name string) (uint64, error) {
	body := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentExt)
	return strconv.ParseUint(body, 10, 64)
}

// readSegment is the one reader of a segment file: Open's recovery scan
// and StreamFrom both go through it. It validates the header (magic,
// format, the sequence number in the file name, and wantSeq unless that
// is 0, which skips the continuity check for the first segment), then
// every record's length bound, sequence chain and CRC. It stops at a clean
// end of file or after limit records, whichever comes first.
//
// Each record with seq >= from goes to fn, when fn is non-nil, in a fresh
// allocation, since fn may keep it; every other record is verified in one
// reused buffer. readSegment returns the segment summary, the byte offset
// of the end of the last intact record, and a non-nil error when the
// segment ends in anything but a clean end of file or when fn fails; the
// summary then covers the intact prefix only.
func readSegment(fs vfs.FS, path string, wantSeq, limit, from uint64, fn func(uint64, []byte) error) (segment, int64, error) {
	f, err := fs.Open(path)
	if err != nil {
		return segment{}, 0, fmt.Errorf("wal: opening segment: %w", err)
	}
	defer f.Close()

	seg := segment{path: path}
	var hdr [max(segHeaderLen, recHeaderLen)]byte
	if _, err := io.ReadFull(f, hdr[:segHeaderLen]); err != nil {
		return seg, 0, fmt.Errorf("wal: segment header: %w", err)
	}
	if string(hdr[:4]) != segmentMagic {
		return seg, 0, errors.New("wal: bad segment magic")
	}
	if format := binary.LittleEndian.Uint32(hdr[4:]); format != segmentFormat {
		return seg, 0, fmt.Errorf("wal: unsupported segment format %d", format)
	}
	seg.firstSeq = binary.LittleEndian.Uint64(hdr[8:])
	if nameSeq, err := seqFromName(filepath.Base(path)); err != nil || nameSeq != seg.firstSeq {
		return seg, 0, errors.New("wal: segment header disagrees with file name")
	}
	if wantSeq != 0 && seg.firstSeq != wantSeq {
		return seg, 0, fmt.Errorf("wal: segment starts at seq %d, expected %d", seg.firstSeq, wantSeq)
	}

	intact := int64(segHeaderLen)
	next := seg.firstSeq
	var scratch []byte
	for seg.records < limit {
		if _, err := io.ReadFull(f, hdr[:recHeaderLen]); err != nil {
			if err == io.EOF {
				return seg, intact, nil // clean end
			}
			return seg, intact, fmt.Errorf("wal: torn record header at offset %d", intact)
		}
		plen := binary.LittleEndian.Uint32(hdr[0:])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		seq := binary.LittleEndian.Uint64(hdr[8:])
		if plen > MaxRecordBytes {
			return seg, intact, fmt.Errorf("wal: implausible record length %d at offset %d", plen, intact)
		}
		if seq != next {
			return seg, intact, fmt.Errorf("wal: sequence break at offset %d: record %d, expected %d", intact, seq, next)
		}
		deliver := fn != nil && seq >= from
		var payload []byte
		if deliver {
			payload = make([]byte, plen)
		} else {
			if int(plen) > cap(scratch) {
				scratch = make([]byte, plen)
			}
			payload = scratch[:plen]
		}
		if _, err := io.ReadFull(f, payload); err != nil {
			return seg, intact, fmt.Errorf("wal: torn record payload at offset %d", intact)
		}
		if recordCRC(seq, payload) != crc {
			return seg, intact, fmt.Errorf("wal: CRC mismatch at offset %d (record %d)", intact, seq)
		}
		if deliver {
			if err := fn(seq, payload); err != nil {
				return seg, intact, err
			}
		}
		intact += int64(recHeaderLen) + int64(plen)
		seg.records++
		next++
	}
	return seg, intact, nil
}

// RecordCRC returns the checksum the log stores with record seq — the
// Castagnoli CRC over seq‖payload. Replication echoes it per shipped
// record so a follower verifies the exact integrity the disk format
// promises, end to end.
func RecordCRC(seq uint64, payload []byte) uint32 { return recordCRC(seq, payload) }

// recordCRC checksums a record's sequence number together with its
// payload, so a frame copied to the wrong position fails verification.
// The eight little-endian bytes of seq go through the table a byte at a
// time: handing crc32 a slice of a stack array would move the array to the
// heap, one allocation per record on every append and every read.
func recordCRC(seq uint64, payload []byte) uint32 {
	crc := ^uint32(0)
	for i := 0; i < 8; i++ {
		crc = crcTable[byte(crc)^byte(seq>>(8*i))] ^ crc>>8
	}
	return crc32.Update(^crc, crcTable, payload)
}

// NextSeq returns the sequence number the next Append will be assigned.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Segments returns the live segment file paths, ascending.
func (l *Log) Segments() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.segs))
	for i := range l.segs {
		out[i] = l.segs[i].path
	}
	return out
}

// OldestSeq returns the sequence number of the oldest record the log can
// still stream (compaction removes covered segments wholesale). On an
// empty log it equals NextSeq: nothing is streamable yet.
func (l *Log) OldestSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 {
		return l.nextSeq
	}
	return l.segs[0].firstSeq
}

// StreamFrom streams every record with seq >= from, in order, to fn, and
// returns the sequence number one past the last record that existed when
// the call started — the resume point for the next StreamFrom. It is valid
// at any point in the log's life, concurrently with appends: the segment
// set and record counts are snapshotted under the lock, so fn sees a
// consistent prefix and never a torn tail (a record's frame is fully
// written before it is counted). Recovery replays a reopened log through
// it, and it is the replication catch-up reader — a follower at seq F
// calls StreamFrom(F+1, ship) in a loop, interleaved with the apply
// notifier, to tail the primary's log.
//
// When from precedes OldestSeq the suffix is gone (compaction): the
// caller must re-seed from a checkpoint instead, and StreamFrom reports
// ErrCompacted.
func (l *Log) StreamFrom(from uint64, fn func(seq uint64, payload []byte) error) (next uint64, err error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, errors.New("wal: log is closed")
	}
	oldest := l.nextSeq // empty log: nothing below nextSeq is streamable
	if len(l.segs) > 0 {
		oldest = l.segs[0].firstSeq
	}
	if from < oldest {
		l.mu.Unlock()
		return 0, fmt.Errorf("%w: seq %d requested, oldest retained is %d", ErrCompacted, from, oldest)
	}
	segs := make([]segment, len(l.segs))
	copy(segs, l.segs)
	next = l.nextSeq
	// Everything below next is fully on disk (the frame write completes
	// under mu before records/nextSeq advance), but the bytes may still be
	// unsynced — fine for same-machine readers, which is what replication
	// shipping is: the OS page cache serves them.
	l.mu.Unlock()

	for _, seg := range segs {
		if seg.firstSeq+seg.records <= from {
			continue
		}
		// Stop at the snapshotted count: the tail segment keeps growing.
		got, _, err := readSegment(l.fs, seg.path, seg.firstSeq, seg.records, from, fn)
		if err != nil {
			return 0, err
		}
		if got.records != seg.records {
			return 0, fmt.Errorf("wal: %s ended after %d of its %d records", filepath.Base(seg.path), got.records, seg.records)
		}
	}
	return next, nil
}

// ErrCompacted marks a StreamFrom request for records that checkpoint
// compaction already removed: the caller must re-seed from a checkpoint.
var ErrCompacted = errors.New("wal: requested records were compacted away")

// Append frames the payload under the next sequence number, writes it to
// the tail segment (rotating first when the segment is full), applies the
// fsync policy and returns the assigned sequence number. The record is
// durable when Append returns with SyncEvery == 1; with batched sync it is
// durable no later than SyncEvery-1 appends or one Sync call later.
//
// Append is fail-stop: after any write, rotation or sync failure the log
// refuses further appends with the original error. A partial frame may be
// sitting mid-segment after such a failure, and a record written after it
// would survive the write yet be discarded by recovery's prefix scan — so
// rather than acknowledge durability it cannot deliver, the log demands a
// reopen (which truncates the garbage) before accepting more records.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: payload of %d bytes exceeds MaxRecordBytes", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("wal: log is closed")
	}
	if l.failed != nil {
		return 0, fmt.Errorf("wal: log failed earlier: %w", l.failed)
	}
	if l.cur == nil || l.curSize >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.failed = err
			return 0, err
		}
	}
	seq := l.nextSeq
	buf := make([]byte, recHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], recordCRC(seq, payload))
	binary.LittleEndian.PutUint64(buf[8:], seq)
	copy(buf[recHeaderLen:], payload)
	if _, err := l.cur.Write(buf); err != nil {
		l.failed = err
		return 0, fmt.Errorf("wal: appending record %d: %w", seq, err)
	}
	l.curSize += int64(len(buf))
	l.nextSeq++
	l.segs[len(l.segs)-1].records++
	l.unsynced++
	if l.opts.SyncEvery > 0 && l.unsynced >= l.opts.SyncEvery {
		if err := l.syncLocked(); err != nil {
			l.failed = err
			return 0, err
		}
	}
	return seq, nil
}

// rotateLocked syncs and closes the tail segment and opens a fresh one
// starting at nextSeq. The new segment's header is synced (and the
// directory entry with it) before any record lands, so recovery can always
// trust headers.
func (l *Log) rotateLocked() error {
	if l.cur != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.cur.Close(); err != nil {
			return fmt.Errorf("wal: closing segment: %w", err)
		}
		l.cur = nil
	}
	path := filepath.Join(l.dir, segmentName(l.nextSeq))
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	header := make([]byte, segHeaderLen)
	copy(header, segmentMagic)
	binary.LittleEndian.PutUint32(header[4:], segmentFormat)
	binary.LittleEndian.PutUint64(header[8:], l.nextSeq)
	if _, err := f.Write(header); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if l.opts.SyncEvery >= 0 {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: syncing segment header: %w", err)
		}
		if err := l.fs.SyncDir(l.dir); err != nil {
			f.Close()
			return fmt.Errorf("wal: syncing directory after segment create: %w", err)
		}
	}
	l.cur = f
	l.curSize = segHeaderLen
	l.segs = append(l.segs, segment{path: path, firstSeq: l.nextSeq})
	return nil
}

// Sync forces an fsync of the tail segment regardless of the SyncEvery
// policy — the graceful-shutdown flush.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.cur == nil || l.unsynced == 0 {
		l.unsynced = 0
		return nil
	}
	if err := l.cur.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.unsynced = 0
	return nil
}

// TruncateBefore removes segments every record of which has seq < from —
// the checkpoint compaction hook: once a checkpoint covers versions up to
// from-1, the log prefix is dead weight. The tail segment is never
// removed, and a segment containing both covered and uncovered records is
// kept whole (recovery skips the covered prefix during replay).
func (l *Log) TruncateBefore(from uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.segs[:0]
	for i, seg := range l.segs {
		last := i == len(l.segs)-1
		end := seg.firstSeq + seg.records // one past the last record
		if !last && end <= from {
			if err := l.fs.Remove(seg.path); err != nil {
				// Keep state consistent with disk on failure.
				kept = append(kept, l.segs[i:]...)
				l.segs = kept
				return fmt.Errorf("wal: removing covered segment: %w", err)
			}
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	return nil
}

// SkipTo advances the next sequence number to seq without writing
// anything, forcing a fresh segment for the next append. It is how a
// recovered server resumes numbering after a checkpoint that is newer
// than every surviving log record; seq must not rewind.
func (l *Log) SkipTo(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < l.nextSeq {
		return fmt.Errorf("wal: SkipTo(%d) would rewind next sequence %d", seq, l.nextSeq)
	}
	if seq == l.nextSeq {
		return nil
	}
	if l.cur != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.cur.Close(); err != nil {
			return fmt.Errorf("wal: closing segment: %w", err)
		}
		l.cur = nil
	}
	l.nextSeq = seq
	return nil
}

// Close flushes and closes the log. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.cur == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.cur.Close(); err == nil {
		err = cerr
	}
	l.cur = nil
	return err
}
