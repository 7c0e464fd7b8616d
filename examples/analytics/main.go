// Analytics: partition a skewed graph with Distributed NE, then run the
// engine's whole application suite over it — the paper's Table-5 workloads
// (SSSP, WCC, PageRank) plus BFS trees, k-core decomposition, triangle
// counting, label propagation, and a custom vertex program through the
// engine.Program interface.
//
//	go run ./examples/analytics
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"sort"

	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/engine"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

func main() {
	g := gen.RMAT(13, 16, 42)
	res, err := dne.Partitioner{}.Partition(context.Background(), g, partition.NewSpec(8, 0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioned %v into 8 parts, RF %.3f\n\n",
		g, res.Quality.ReplicationFactor)

	e := engine.New(g, res.Partitioning)

	// Reachability + distances.
	dist := e.SSSP(0)
	reach, maxd := 0, int64(0)
	for _, d := range dist {
		if d != math.MaxInt64 {
			reach++
			if d > maxd {
				maxd = d
			}
		}
	}
	fmt.Printf("SSSP from 0: %d reachable, eccentricity %d (%d supersteps)\n",
		reach, maxd, e.Supersteps)

	// Components.
	e.ResetStats()
	labels := e.WCC()
	comps := map[graph.Vertex]int{}
	for v, l := range labels {
		if g.Degree(graph.Vertex(v)) > 0 {
			comps[l]++
		}
	}
	fmt.Printf("WCC: %d components among covered vertices\n", len(comps))

	// Structure: coreness and triangles.
	e.ResetStats()
	core := e.Coreness()
	var maxCore int32
	for _, c := range core {
		if c > maxCore {
			maxCore = c
		}
	}
	tri := e.Triangles()
	fmt.Printf("degeneracy (max coreness): %d   triangles: %d\n", maxCore, tri)

	// Influence: PageRank top-3.
	e.ResetStats()
	pr := e.PageRank(20, 0.85)
	idx := make([]int, len(pr))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pr[idx[a]] > pr[idx[b]] })
	fmt.Printf("PageRank top-3: v%d (%.5f), v%d (%.5f), v%d (%.5f) — COM %.1f MB\n",
		idx[0], pr[idx[0]], idx[1], pr[idx[1]], idx[2], pr[idx[2]],
		float64(e.CommBytes)/(1<<20))

	// Communities.
	e.ResetStats()
	lpa := e.LabelPropagation(20)
	seen := map[graph.Vertex]struct{}{}
	for v, l := range lpa {
		if g.Degree(graph.Vertex(v)) > 0 {
			seen[l] = struct{}{}
		}
	}
	fmt.Printf("label propagation: %d communities after %d supersteps\n",
		len(seen), e.Supersteps)

	// Custom vertex program: average neighbor degree, one line per concept.
	deg := g.Degrees()
	avgNbr := e.Run(avgNeighborDegree{deg: deg}, 1)
	var hi graph.Vertex
	for v := range avgNbr {
		if avgNbr[v] > avgNbr[hi] {
			hi = graph.Vertex(v)
		}
	}
	fmt.Printf("custom program: vertex %d has the best-connected neighborhood (avg nbr degree %.1f)\n",
		hi, avgNbr[hi])
}

// avgNeighborDegree computes each vertex's mean neighbor degree in one
// gather round — the kind of one-off analytic the Program interface exists
// for.
type avgNeighborDegree struct{ deg []int64 }

func (p avgNeighborDegree) Init(graph.Vertex) float64 { return 0 }
func (p avgNeighborDegree) Gather(u graph.Vertex, _ float64, _ graph.Vertex) float64 {
	return float64(p.deg[u])
}
func (p avgNeighborDegree) Apply(v graph.Vertex, _, sum float64) (float64, bool) {
	if p.deg[v] == 0 {
		return 0, false
	}
	return sum / float64(p.deg[v]), true
}
