package cluster

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"hdcirc/internal/vfs"
)

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	m := testManifest(3)
	m.Version = 7
	m.Normalize()
	got, err := DecodeBinary(m.EncodeBinary())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, m)
	}
}

// TestBinaryCorruptionDetected flips every byte position in turn and
// requires the decoder to reject each mutation — the whole-file CRC must
// leave no blind spots.
func TestBinaryCorruptionDetected(t *testing.T) {
	m := testManifest(2)
	m.Version = 3
	m.Normalize()
	enc := m.EncodeBinary()
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x41
		if dec, err := DecodeBinary(bad); err == nil {
			t.Fatalf("byte %d flipped yet decode succeeded: %+v", i, dec)
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeBinary(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := DecodeBinary(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecodeJSON(t *testing.T) {
	data, err := json.Marshal(testManifest(2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() != 2 || m.RingPositions != 8 || m.RingDim != DefaultRingDim {
		t.Fatalf("JSON manifest decoded to %+v", m)
	}
	if _, err := Decode([]byte(`{"shards":[]}`)); err == nil {
		t.Fatal("empty shard list accepted")
	}
	if _, err := Decode([]byte(`{"shards":[{"primary":""}]}`)); err == nil {
		t.Fatal("empty primary accepted")
	}
	if _, err := Decode([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestValidate(t *testing.T) {
	m := testManifest(2)
	m.RingPositions = 2 // < 2×shards after two shards
	if err := m.Validate(); err == nil {
		t.Fatal("undersized ring accepted")
	}
	m = testManifest(2)
	m.Normalize()
	m.RingDim = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative ring dim accepted")
	}
	m = testManifest(2)
	m.Shards[1].Replicas = []string{""}
	m.Normalize()
	if err := m.Validate(); err == nil {
		t.Fatal("empty replica URL accepted")
	}
}

func TestSaveLoad(t *testing.T) {
	m := testManifest(3)
	m.Version = 12
	m.Normalize()
	path := filepath.Join(t.TempDir(), "cluster.hclu")
	if err := m.Save(nil, path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("load after save:\n got %+v\nwant %+v", got, m)
	}

	// A JSON file loads through the same entry point.
	jsonPath := filepath.Join(t.TempDir(), "cluster.json")
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, jsonPath, data)
	got, err = Load(nil, jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("JSON load:\n got %+v\nwant %+v", got, m)
	}

	// Corruption on disk surfaces as ErrCorrupt.
	raw := m.EncodeBinary()
	raw[len(raw)/2] ^= 0xFF
	badPath := filepath.Join(t.TempDir(), "bad.hclu")
	writeFile(t, badPath, raw)
	if _, err := Load(nil, badPath); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt manifest load error = %v, want ErrCorrupt", err)
	}
}

// TestSaveFaultLeavesNoTempFile: a save that fails before its rename
// returns the injected errno, removes its temp file, and leaves the
// previous manifest loadable.
func TestSaveFaultLeavesNoTempFile(t *testing.T) {
	for _, op := range []vfs.Op{vfs.OpWrite, vfs.OpSync, vfs.OpRename} {
		t.Run(string(op), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cluster.hclu")
			prev := testManifest(2)
			prev.Version = 1
			prev.Normalize()
			ffs := vfs.NewFaultFS(nil)
			if err := prev.Save(ffs, path); err != nil {
				t.Fatal(err)
			}
			next := prev.Clone()
			next.Version = 2
			ffs.Arm(vfs.Fault{Op: op, Err: vfs.ErrIO, Count: 1})
			if err := next.Save(ffs, path); !errors.Is(err, syscall.EIO) {
				t.Fatalf("Save with a %s fault = %v, want EIO", op, err)
			}
			if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("failed Save left its temp file: %v", err)
			}
			got, err := Load(nil, path)
			if err != nil {
				t.Fatalf("previous manifest no longer loads: %v", err)
			}
			if !reflect.DeepEqual(got, prev) {
				t.Fatalf("after the failed Save:\n got %+v\nwant %+v", got, prev)
			}
		})
	}
}

func TestClone(t *testing.T) {
	m := testManifest(2)
	m.Normalize()
	c := m.Clone()
	if !reflect.DeepEqual(c, m) {
		t.Fatalf("clone differs: %+v vs %+v", c, m)
	}
	c.Shards[0].Replicas[0] = "mutated"
	if m.Shards[0].Replicas[0] == "mutated" {
		t.Fatal("clone shares replica slice with original")
	}
}
