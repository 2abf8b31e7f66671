package cluster

import (
	"fmt"
	"testing"
)

func keysFor(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%064x", i*2654435761)
	}
	return out
}

// TestRingBalance pins the virtual-node sizing: three peers each own a
// third of the keyspace within a loose tolerance, and an empty ring
// owns nothing.
func TestRingBalance(t *testing.T) {
	r := NewRing("http://a", "http://b", "http://c")
	counts := map[string]int{}
	keys := keysFor(3000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	for peer, c := range counts {
		frac := float64(c) / float64(len(keys))
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("peer %s owns %.0f%% of keys; ring badly unbalanced", peer, frac*100)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d peers own keys, want 3", len(counts))
	}
	if NewRing().Owner("deadbeef") != "" {
		t.Fatal("empty ring must have no owner")
	}
}

// TestRingMinimalMovement pins consistency: evicting one of three peers
// moves only that peer's keys, and re-admission restores the exact
// original assignment.
func TestRingMinimalMovement(t *testing.T) {
	r := NewRing("http://a", "http://b", "http://c")
	keys := keysFor(2000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.Owner(k)
	}
	if !r.Evict("http://b") {
		t.Fatal("evict of live peer reported no change")
	}
	for _, k := range keys {
		now := r.Owner(k)
		if now == "http://b" {
			t.Fatalf("evicted peer still owns %s", k)
		}
		if before[k] != "http://b" && now != before[k] {
			t.Fatalf("key %s moved from %s to %s though its owner survived", k, before[k], now)
		}
	}
	if !r.Add("http://b") {
		t.Fatal("re-admission reported no change")
	}
	for _, k := range keys {
		if r.Owner(k) != before[k] {
			t.Fatalf("key %s did not return to %s after re-admission", k, before[k])
		}
	}
}
