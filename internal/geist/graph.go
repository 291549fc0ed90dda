// Package geist reimplements GEIST (Thiagarajan et al., ICS 2018), the
// semi-supervised adaptive-sampling baseline the paper compares
// HiPerBOt against in every configuration-selection experiment
// (Figs. 2-6). GEIST represents the parameter space as an undirected
// graph whose nodes are configurations and whose edges connect
// configurations differing in exactly one parameter value; it labels
// evaluated nodes optimal/non-optimal by an objective threshold,
// propagates the labels over the graph with the CAMLP
// confidence-aware label-propagation algorithm (Yamaguchi et al.,
// SDM 2016), and iteratively evaluates the unlabeled nodes whose
// propagated "optimal" belief is highest.
package geist

import (
	"fmt"

	"github.com/hpcautotune/hiperbot/internal/dataset"
	"github.com/hpcautotune/hiperbot/internal/par"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// Graph is the Hamming-distance-1 configuration graph over a dataset.
// Node IDs are dataset row indices. Edges may carry weights: ordinal
// parameters (thread counts, power caps) make adjacent levels more
// similar than distant ones, and propagation should trust close
// neighbors more.
type Graph struct {
	n       int
	adj     [][]int32
	weights [][]float32 // nil for an unweighted graph
}

// BuildGraph constructs the unweighted configuration graph for a
// dataset: nodes are table rows, edges connect rows whose
// configurations differ in exactly one (discrete) parameter. Neighbor
// discovery runs in parallel over rows.
func BuildGraph(tbl *dataset.Table) *Graph {
	return buildGraph(tbl.Space, tbl.Len(), tbl.Config, tbl.IndexOf, false)
}

// BuildWeightedGraph is BuildGraph with level-distance edge weights:
// an edge whose differing parameter is ordinal (has numeric level
// values) gets weight 1/(1+|Δindex|-1) — adjacent levels weigh 1,
// distant levels less; categorical flips always weigh 1.
func BuildWeightedGraph(tbl *dataset.Table) *Graph {
	return buildGraph(tbl.Space, tbl.Len(), tbl.Config, tbl.IndexOf, true)
}

// buildGraph does the parallel neighbor discovery over n nodes, node
// i being config(i) and indexOf mapping a configuration back to its
// node or -1: a table's rows, or a candidate pool's.
func buildGraph(sp *space.Space, n int, config func(int) space.Config, indexOf func(space.Config) int, weighted bool) *Graph {
	g := &Graph{n: n, adj: make([][]int32, n)}
	if weighted {
		g.weights = make([][]float32, n)
	}
	par.For(n, 0, func(i int) {
		ci := config(i)
		for _, nb := range sp.Neighbors(ci) {
			j := indexOf(nb)
			if j < 0 {
				continue
			}
			g.adj[i] = append(g.adj[i], int32(j))
			if weighted {
				g.weights[i] = append(g.weights[i], edgeWeight(sp, ci, nb))
			}
		}
	})
	return g
}

// edgeWeight computes the similarity of two Hamming-1 neighbors from
// the level distance of their single differing parameter.
func edgeWeight(sp *space.Space, a, b space.Config) float32 {
	for dim := range a {
		if a[dim] == b[dim] {
			continue
		}
		p := sp.Param(dim)
		if p.Numeric == nil {
			return 1 // categorical: all flips equal
		}
		d := int(a[dim]) - int(b[dim])
		if d < 0 {
			d = -d
		}
		return float32(1.0 / float64(d))
	}
	return 1
}

// Weight returns the weight of the k-th edge of node i (1 for
// unweighted graphs).
func (g *Graph) Weight(i, k int) float64 {
	if g.weights == nil {
		return 1
	}
	return float64(g.weights[i][k])
}

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.n }

// Degree returns the degree of node i.
func (g *Graph) Degree(i int) int { return len(g.adj[i]) }

// Neighbors returns the adjacency list of node i (shared; do not
// mutate).
func (g *Graph) Neighbors(i int) []int32 { return g.adj[i] }

// Validate checks structural invariants: symmetry and no self-loops.
// It is O(E log E)-ish and intended for tests.
func (g *Graph) Validate() error {
	type edge struct{ a, b int32 }
	seen := make(map[edge]bool)
	for i := range g.adj {
		for _, j := range g.adj[i] {
			if int(j) == i {
				return fmt.Errorf("geist: self-loop at node %d", i)
			}
			seen[edge{int32(i), j}] = true
		}
	}
	for e := range seen {
		if !seen[edge{e.b, e.a}] {
			return fmt.Errorf("geist: edge %d->%d has no reverse", e.a, e.b)
		}
	}
	return nil
}
