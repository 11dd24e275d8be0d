package hashring

import "testing"

func TestNewShardsRejectsBadSizing(t *testing.T) {
	if _, err := NewShards(8, 64, 1, 0); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewShards(4, 64, 1, 5); err == nil {
		t.Error("five shards on four positions accepted")
	}
	if _, err := NewShards(1, 64, 1, 1); err == nil {
		t.Error("one-position ring accepted")
	}
}
