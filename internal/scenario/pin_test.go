package scenario_test

import (
	"hash/fnv"
	"testing"

	"hdcirc/internal/scenario"
)

// TestScenarioSplitsPinned pins every scenario's encoded splits exactly:
// the FNV-64a digest of MarshalBinary of each encoded row, training split
// first, and a digest of the labels in split order. The wire rows, the
// server-side encoder and the generators behind them all feed these
// digests, so moving any of them must leave both unchanged.
func TestScenarioSplitsPinned(t *testing.T) {
	pins := map[string]struct {
		train, test     int
		encoded, labels uint64
	}{
		"graphhd":  {90, 60, 0x5a6dcece22cff5c8, 0xc35d03306d3b214f},
		"language": {200, 125, 0x8b20767b4c3cb4ff, 0xd984d5f31b94c3db},
		"signals":  {150, 100, 0xd1e5fabaa1ada5d2, 0xb5cd146e18535643},
	}
	for _, name := range scenario.Names() {
		pin, ok := pins[name]
		if !ok {
			t.Errorf("scenario %s is not pinned", name)
			continue
		}
		sc, err := scenario.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(sc.Train) != pin.train || len(sc.Test) != pin.test {
			t.Errorf("%s: splits %d/%d, pinned %d/%d", name, len(sc.Train), len(sc.Test), pin.train, pin.test)
		}
		encoded, labels := fnv.New64a(), fnv.New64a()
		for _, split := range [][]scenario.Row{sc.Train, sc.Test} {
			for _, row := range split {
				b, err := sc.Encoder.Encode(row.Features).MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				encoded.Write(b)
				labels.Write([]byte{byte(row.Label)})
			}
		}
		if got := encoded.Sum64(); got != pin.encoded {
			t.Errorf("%s: encoded splits digest %016x, pinned %016x", name, got, pin.encoded)
		}
		if got := labels.Sum64(); got != pin.labels {
			t.Errorf("%s: labels digest %016x, pinned %016x", name, got, pin.labels)
		}
	}
}
