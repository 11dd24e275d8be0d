// Package cluster composes N independent primary+replica serving groups
// into one logical horizontally-sharded tier. The replication layer
// (internal/repl) read-scales a single model; this package write-scales
// the tier: a versioned manifest pins the shard count and the hashring
// geometry every participant must agree on, and a Topology derived from
// it answers the only routing question that matters — which shard owns a
// given class or item key. Servers use the answer to refuse misrouted
// writes (the wrong_shard protocol error), clients use it to route
// requests and to split ingest streams per shard.
//
// The manifest travels in two encodings: HCLU, a whole-file-CRC'd binary
// format in the HSRV/HCKP family for artifacts that must detect
// corruption, and plain JSON for operator-authored files. Load sniffs
// the magic and accepts either.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"hdcirc/internal/vfs"
)

// Binary manifest layout (all integers little-endian):
//
//	magic "HCLU" | u32 format | u64 version
//	u32 ring_positions | u32 ring_dim | u64 ring_seed
//	u32 shard_count
//	per shard: framed primary URL, u32 replica_count, framed replica URLs
//	u32 CRC-32C over every preceding byte
//
// A framed string is u32 length + bytes. The CRC covers the whole file so
// any torn write or bit flip is detected before a single field is parsed.
const (
	manifestMagic  = "HCLU"
	manifestFormat = 1

	// maxManifestURL bounds a single framed URL so a corrupt length field
	// cannot drive a huge allocation before the CRC check would have
	// caught it (the CRC runs first; this is defense in depth for the
	// decoder itself).
	maxManifestURL = 4096
	// maxManifestShards bounds the shard count a decoder will accept.
	maxManifestShards = 1 << 16
)

// crcTable is the Castagnoli table shared by the repo's wire formats.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a manifest file that failed its whole-file CRC or
// structural bounds — the bytes cannot be trusted at all, as opposed to a
// well-formed manifest that fails validation.
var ErrCorrupt = fmt.Errorf("cluster: manifest corrupt")

// ShardEndpoints is one shard group's serving endpoints: the primary
// (write plane) and its replicas (read plane).
type ShardEndpoints struct {
	Primary  string   `json:"primary"`
	Replicas []string `json:"replicas,omitempty"`
}

// Manifest is the versioned description of a sharded tier. Version orders
// topology changes (a client refreshing via GET /v1/cluster adopts a
// manifest only when its version is newer); the ring fields pin the
// hashring geometry — every server and client in the tier must build the
// routing ring from identical parameters or keys silently migrate.
type Manifest struct {
	Version       uint64           `json:"version"`
	RingPositions int              `json:"ring_positions,omitempty"`
	RingDim       int              `json:"ring_dim,omitempty"`
	RingSeed      uint64           `json:"ring_seed"`
	Shards        []ShardEndpoints `json:"shards"`
}

// DefaultRingDim is the position-hypervector dimension used when a
// manifest leaves RingDim zero. 1024 bits keeps position vectors well
// separated for any plausible shard count while staying cheap to build.
const DefaultRingDim = 1024

// Normalize fills the defaulted ring geometry in place: RingPositions
// defaults to max(8, 2×shards) rounded up to even (matching the
// in-process serving ring's sizing rule), RingDim to DefaultRingDim.
// Changing either default would remap keys, so both are pinned by the
// golden-assignment tests.
func (m *Manifest) Normalize() {
	if m.RingPositions == 0 {
		p := 2 * len(m.Shards)
		if p < 8 {
			p = 8
		}
		m.RingPositions = p
	}
	if m.RingPositions%2 != 0 {
		m.RingPositions++
	}
	if m.RingDim == 0 {
		m.RingDim = DefaultRingDim
	}
}

// Validate checks a manifest is usable: at least one shard, every shard
// with a non-empty primary, and ring geometry (after Normalize) that the
// hashring can actually host.
func (m *Manifest) Validate() error {
	if len(m.Shards) == 0 {
		return fmt.Errorf("cluster: manifest has no shards")
	}
	if len(m.Shards) > maxManifestShards {
		return fmt.Errorf("cluster: %d shards exceeds the %d limit", len(m.Shards), maxManifestShards)
	}
	for i, s := range m.Shards {
		if s.Primary == "" {
			return fmt.Errorf("cluster: shard %d has no primary endpoint", i)
		}
		if len(s.Primary) > maxManifestURL {
			return fmt.Errorf("cluster: shard %d primary URL exceeds %d bytes", i, maxManifestURL)
		}
		for j, r := range s.Replicas {
			if r == "" {
				return fmt.Errorf("cluster: shard %d replica %d is empty", i, j)
			}
			if len(r) > maxManifestURL {
				return fmt.Errorf("cluster: shard %d replica %d URL exceeds %d bytes", i, j, maxManifestURL)
			}
		}
	}
	if m.RingPositions < 2*len(m.Shards) {
		return fmt.Errorf("cluster: %d ring positions cannot host %d shards (need ≥ 2×)",
			m.RingPositions, len(m.Shards))
	}
	if m.RingDim <= 0 {
		return fmt.Errorf("cluster: ring dimension must be positive, got %d", m.RingDim)
	}
	return nil
}

// NumShards returns the shard count.
func (m *Manifest) NumShards() int { return len(m.Shards) }

// Clone returns a deep copy, so a server can hand its manifest to the
// wire layer without sharing replica slices.
func (m *Manifest) Clone() *Manifest {
	out := &Manifest{
		Version:       m.Version,
		RingPositions: m.RingPositions,
		RingDim:       m.RingDim,
		RingSeed:      m.RingSeed,
		Shards:        make([]ShardEndpoints, len(m.Shards)),
	}
	for i, s := range m.Shards {
		out.Shards[i] = ShardEndpoints{Primary: s.Primary}
		if len(s.Replicas) > 0 {
			out.Shards[i].Replicas = append([]string(nil), s.Replicas...)
		}
	}
	return out
}

// appendFramed appends a u32-length-prefixed string.
func appendFramed(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// EncodeBinary serializes the manifest in the HCLU format, CRC trailer
// included. The manifest should be normalized first so the geometry the
// CRC seals is the geometry everyone routes by.
func (m *Manifest) EncodeBinary() []byte {
	buf := make([]byte, 0, 64+32*len(m.Shards))
	buf = append(buf, manifestMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, manifestFormat)
	buf = binary.LittleEndian.AppendUint64(buf, m.Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.RingPositions))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.RingDim))
	buf = binary.LittleEndian.AppendUint64(buf, m.RingSeed)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Shards)))
	for _, s := range m.Shards {
		buf = appendFramed(buf, s.Primary)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Replicas)))
		for _, r := range s.Replicas {
			buf = appendFramed(buf, r)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// binReader walks the decoded byte stream with bounds checks; any
// overrun marks the manifest corrupt rather than panicking.
type binReader struct {
	buf []byte
	off int
	err error
}

func (r *binReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.err = ErrCorrupt
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *binReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.err = ErrCorrupt
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *binReader) framed() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if n > maxManifestURL || r.off+int(n) > len(r.buf) {
		r.err = ErrCorrupt
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// DecodeBinary parses an HCLU manifest. The whole-file CRC is verified
// before any field is interpreted; structural violations after a passing
// CRC (which would require a buggy encoder, not a torn write) still
// surface as ErrCorrupt rather than garbage values.
func DecodeBinary(data []byte) (*Manifest, error) {
	if len(data) < len(manifestMagic)+8 || string(data[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	r := &binReader{buf: body, off: len(manifestMagic)}
	if format := r.u32(); r.err == nil && format != manifestFormat {
		return nil, fmt.Errorf("cluster: unsupported manifest format %d (have %d)", format, manifestFormat)
	}
	m := &Manifest{}
	m.Version = r.u64()
	m.RingPositions = int(r.u32())
	m.RingDim = int(r.u32())
	m.RingSeed = r.u64()
	n := r.u32()
	if r.err == nil && n > maxManifestShards {
		return nil, fmt.Errorf("%w: shard count %d exceeds limit", ErrCorrupt, n)
	}
	for i := uint32(0); i < n && r.err == nil; i++ {
		var s ShardEndpoints
		s.Primary = r.framed()
		nr := r.u32()
		if r.err == nil && nr > maxManifestShards {
			r.err = ErrCorrupt
			break
		}
		for j := uint32(0); j < nr && r.err == nil; j++ {
			s.Replicas = append(s.Replicas, r.framed())
		}
		m.Shards = append(m.Shards, s)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body)-r.off)
	}
	return m, nil
}

// Decode parses a manifest from either encoding — HCLU binary when the
// magic matches, strict JSON otherwise — then normalizes and validates
// it, so every manifest that reaches routing code is usable as-is.
func Decode(data []byte) (*Manifest, error) {
	var m *Manifest
	if len(data) >= len(manifestMagic) && string(data[:len(manifestMagic)]) == manifestMagic {
		var err error
		if m, err = DecodeBinary(data); err != nil {
			return nil, err
		}
	} else {
		m = &Manifest{}
		if err := json.Unmarshal(data, m); err != nil {
			return nil, fmt.Errorf("cluster: parsing JSON manifest: %w", err)
		}
	}
	m.Normalize()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Load reads a manifest file through the filesystem seam (nil fs selects
// the real OS) and decodes it with Decode's format sniffing.
func Load(fs vfs.FS, path string) (*Manifest, error) {
	data, err := vfs.ReadFile(vfs.Default(fs), path)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading manifest: %w", err)
	}
	m, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("cluster: manifest %s: %w", path, err)
	}
	return m, nil
}

// Save writes the manifest in HCLU binary form through
// vfs.WriteFileAtomic — the same publish discipline as checkpoints, so a
// crash or a failed save never leaves a half-written manifest under the
// final name, nor a temp file beside it.
func (m *Manifest) Save(fs vfs.FS, path string) error {
	if err := vfs.WriteFileAtomic(vfs.Default(fs), path, m.EncodeBinary()); err != nil {
		return fmt.Errorf("cluster: saving manifest: %w", err)
	}
	return nil
}
