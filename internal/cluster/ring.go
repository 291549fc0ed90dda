// Package cluster implements the consistent-hash ring that partitions
// hiperbotd sessions across a static set of peer nodes. Each node
// projects a fixed number of virtual points onto a 64-bit hash circle;
// a session id is owned by the node whose next point clockwise from
// the id's hash comes first. The mapping is a pure function of the
// (normalized, deduplicated, sorted) node list, so every node in a
// cluster computes the same owner for every session without any
// coordination — and adding or removing one node remaps only the ~1/N
// of sessions whose arcs it gains or loses, never shuffling sessions
// between surviving nodes.
//
// The hash function is part of the on-disk contract: journals and
// snapshots live on the node that owns their session, so changing the
// hash (or the per-node point count) remaps sessions away from their
// data. Both are fixed here and must stay fixed across versions of a
// running cluster.
package cluster

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// pointsPerNode is how many virtual points each node projects onto
// the circle. 128 keeps the ownership imbalance of a small cluster
// within a few percent while the ring stays small enough that building
// it is microseconds. It is fixed, like the hash: every node must use
// the same count, and changing it moves sessions away from their data.
const pointsPerNode = 128

// Ring is an immutable consistent-hash ring over a set of node URLs.
// Safe for concurrent use.
type Ring struct {
	nodes  []string // normalized, deduplicated, sorted
	points []point  // sorted by hash
}

type point struct {
	h    uint64
	node int32
}

// New builds a ring from node base URLs (any mix of self and peers;
// duplicates after normalization collapse). The node list order does
// not matter: every permutation yields an identical ring.
func New(nodes []string) (*Ring, error) {
	seen := make(map[string]bool, len(nodes))
	norm := make([]string, 0, len(nodes))
	for _, n := range nodes {
		u, err := Normalize(n)
		if err != nil {
			return nil, err
		}
		if !seen[u] {
			seen[u] = true
			norm = append(norm, u)
		}
	}
	if len(norm) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	sort.Strings(norm)
	r := &Ring{nodes: norm, points: make([]point, 0, len(norm)*pointsPerNode)}
	for i, n := range norm {
		for v := 0; v < pointsPerNode; v++ {
			r.points = append(r.points, point{h: hash(n + "#" + strconv.Itoa(v)), node: int32(i)})
		}
	}
	// Ties (two vnode labels hashing identically) are broken by node
	// index — node order is the sorted URL order, so the tie-break is
	// itself deterministic across the cluster.
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].h != r.points[b].h {
			return r.points[a].h < r.points[b].h
		}
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// Owner maps a key (session id) to the node URL that owns it.
func (r *Ring) Owner(key string) string {
	h := hash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point clockwise from the top of the circle
	}
	return r.nodes[r.points[i].node]
}

// Nodes returns the normalized node URLs, sorted.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// Len returns the node count.
func (r *Ring) Len() int { return len(r.nodes) }

// Contains reports whether the normalized form of node is on the ring.
func (r *Ring) Contains(node string) bool {
	u, err := Normalize(node)
	if err != nil {
		return false
	}
	i := sort.SearchStrings(r.nodes, u)
	return i < len(r.nodes) && r.nodes[i] == u
}

// Normalize canonicalizes a node base URL so that every node spells
// every peer identically: scheme defaulted to http, scheme and host
// lowercased, trailing slashes dropped. The ring hashes these strings,
// so "HTTP://Host:8080/" and "host:8080" land on the same point.
func Normalize(raw string) (string, error) {
	s := strings.TrimSpace(raw)
	if s == "" {
		return "", fmt.Errorf("cluster: empty node URL")
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	u, err := url.Parse(s)
	if err != nil {
		return "", fmt.Errorf("cluster: invalid node URL %q: %w", raw, err)
	}
	if u.Host == "" {
		return "", fmt.Errorf("cluster: node URL %q has no host", raw)
	}
	if u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("cluster: node URL %q must not carry a query or fragment", raw)
	}
	return strings.ToLower(u.Scheme) + "://" + strings.ToLower(u.Host) + strings.TrimRight(u.Path, "/"), nil
}

// hash is FNV-1a 64 with a splitmix64 finalizer. FNV alone mixes the
// low bits of short, similar strings (s-0001 vs s-0002) poorly for
// ring placement; the finalizer gives full avalanche so vnode points
// and session ids spread uniformly over the circle. Fixed forever —
// see the package comment.
func hash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
