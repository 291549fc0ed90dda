package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s-%016x", rand.New(rand.NewSource(int64(i))).Uint64())
	}
	return out
}

func nodeSet(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://node%d:8080", i)
	}
	return out
}

// The ring must be a pure function of the node *set*: every
// permutation of the peer list — which is exactly what different
// nodes' -peers flags are — yields identical ownership, or the
// cluster would disagree about who owns what.
func TestRingIdenticalAcrossPermutations(t *testing.T) {
	nodes := nodeSet(5)
	base, err := New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	ks := keys(2000)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		perm := make([]string, len(nodes))
		for i, j := range rng.Perm(len(nodes)) {
			perm[i] = nodes[j]
		}
		r, err := New(perm)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			if got, want := r.Owner(k), base.Owner(k); got != want {
				t.Fatalf("permutation %d: Owner(%q) = %q, base ring says %q", trial, k, got, want)
			}
		}
	}
}

// Normalization differences (case, scheme default, trailing slash)
// must not change the ring either: operators will not spell URLs
// byte-identically on every node.
func TestRingIdenticalAcrossSpellings(t *testing.T) {
	a, err := New([]string{"http://node0:8080", "http://node1:8080"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New([]string{"NODE0:8080", "HTTP://node1:8080/"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(500) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("spelling variants disagree on %q: %q vs %q", k, a.Owner(k), b.Owner(k))
		}
	}
}

// Consistent hashing's defining property: growing N→N+1 nodes moves
// keys only TO the new node (surviving nodes never trade keys among
// themselves), and the moved fraction is ~1/(N+1) of all keys.
func TestRingAddNodeRemapsOneNth(t *testing.T) {
	const n = 3
	ks := keys(10000)
	small, err := New(nodeSet(n))
	if err != nil {
		t.Fatal(err)
	}
	grown := append(nodeSet(n), "http://node-new:8080")
	big, err := New(grown)
	if err != nil {
		t.Fatal(err)
	}
	newNode, _ := Normalize("http://node-new:8080")
	moved := 0
	for _, k := range ks {
		before, after := small.Owner(k), big.Owner(k)
		if before == after {
			continue
		}
		if after != newNode {
			t.Fatalf("key %q moved %q -> %q: adding a node must only move keys to the new node", k, before, after)
		}
		moved++
	}
	frac := float64(moved) / float64(len(ks))
	want := 1.0 / float64(n+1)
	if frac < want/2 || frac > want*2 {
		t.Fatalf("adding 1 node to %d moved %.1f%% of keys, want ~%.1f%%", n, 100*frac, 100*want)
	}
}

// The mirror property for removal: shrinking N→N-1 moves only the
// removed node's keys, each landing on some survivor; survivors keep
// every key they had.
func TestRingRemoveNodeRemapsOneNth(t *testing.T) {
	const n = 4
	ks := keys(10000)
	full, err := New(nodeSet(n))
	if err != nil {
		t.Fatal(err)
	}
	removed, _ := Normalize(nodeSet(n)[n-1])
	shrunk, err := New(nodeSet(n)[:n-1])
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, k := range ks {
		before, after := full.Owner(k), shrunk.Owner(k)
		if before == removed {
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %q owned by surviving %q moved to %q after removing %q", k, before, after, removed)
		}
	}
	frac := float64(moved) / float64(len(ks))
	want := 1.0 / float64(n)
	if frac < want/2 || frac > want*2 {
		t.Fatalf("removing 1 node of %d remapped %.1f%% of keys, want ~%.1f%%", n, 100*frac, 100*want)
	}
}

// With pointsPerNode points per node, a 3-node ring should split
// 10k keys roughly evenly — no node starved or doubly loaded.
func TestRingBalance(t *testing.T) {
	r, err := New(nodeSet(3))
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	ks := keys(10000)
	for _, k := range ks {
		counts[r.Owner(k)]++
	}
	for node, c := range counts {
		frac := float64(c) / float64(len(ks))
		if frac < 0.18 || frac > 0.50 {
			t.Fatalf("node %s owns %.1f%% of keys; want roughly a third", node, 100*frac)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d of 3 nodes own keys", len(counts))
	}
}

// Ring placement is part of the on-disk contract: journals live on
// the node that owned their session when it was created. These owners
// were recorded with the hash and point count in use since the ring
// was introduced; any change to either strands existing data dirs.
func TestRingPlacementIsFrozen(t *testing.T) {
	r, err := New(nodeSet(3))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1, 0, 2, 1, 2, 1, 1, 2, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 1, 0, 2, 1, 1}
	for k, w := range want {
		key := fmt.Sprintf("sess-%04d", k)
		if got, exp := r.Owner(key), nodeSet(3)[w]; got != exp {
			t.Fatalf("Owner(%q) = %q, want %q", key, got, exp)
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"http://host:8080", "http://host:8080", true},
		{"HTTP://Host:8080/", "http://host:8080", true},
		{"host:8080", "http://host:8080", true},
		{" https://a.example/base/ ", "https://a.example/base", true},
		{"", "", false},
		{"http://", "", false},
		{"http://h:1?x=1", "", false},
	}
	for _, c := range cases {
		got, err := Normalize(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("Normalize(%q): err = %v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Fatalf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRingRejectsEmpty(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("New(nil) succeeded; want error")
	}
}

func TestRingSingleNodeOwnsEverything(t *testing.T) {
	r, err := New([]string{"http://solo:1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(100) {
		if r.Owner(k) != "http://solo:1" {
			t.Fatalf("single-node ring mapped %q elsewhere", k)
		}
	}
}

func BenchmarkRingOwner(b *testing.B) {
	r, err := New(nodeSet(8))
	if err != nil {
		b.Fatal(err)
	}
	ks := keys(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Owner(ks[i%len(ks)])
	}
}
