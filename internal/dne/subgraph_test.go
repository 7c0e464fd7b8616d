package dne

import (
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
)

// gridShares filters g's canonical edges by owning machine: rank r's share
// is every edge (u,v) with gd.edgeOwner(u,v) == r, as packed keys in
// canonical order. It is the reference the shuffle is checked against.
func gridShares(g *graph.Graph, p int) [][]uint64 {
	gd := newGrid(p)
	shares := make([][]uint64, p)
	for _, e := range g.Edges() {
		r := gd.edgeOwner(e.U, e.V)
		shares[r] = append(shares[r], graph.PackEdge(e.U, e.V))
	}
	return shares
}

// shuffleAll runs shuffleShard on every rank of an in-process cluster and
// returns the edges each rank received.
func shuffleAll(t *testing.T, shards []*graph.Shard) [][]uint64 {
	t.Helper()
	p := len(shards)
	gd := newGrid(p)
	received := make([][]uint64, p)
	err := cluster.New(p).Run(func(comm cluster.Comm) error {
		received[comm.Rank()], _ = shuffleShard(comm, gd, shards[comm.Rank()].Packed)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return received
}

// checkSubGraphOver checks that sg is built over exactly the given packed
// edges: the same local edge list in the same order, the sorted distinct
// endpoints as local vertices, and a CSR holding each local edge once in
// each endpoint's adjacency, in ascending local-edge order, with every
// edge free.
func checkSubGraphOver(t *testing.T, rank int, sg *subGraph, keys []uint64) {
	t.Helper()
	if len(sg.edges) != len(keys) {
		t.Fatalf("rank %d: subgraph has %d edges, share has %d", rank, len(sg.edges), len(keys))
	}
	var verts []graph.Vertex
	for i, e := range sg.edges {
		if graph.PackEdge(e.U, e.V) != keys[i] {
			t.Fatalf("rank %d: local edge %d is %v, want %v", rank, i, e, graph.UnpackEdge(keys[i]))
		}
		verts = append(verts, e.U, e.V)
	}
	slices.Sort(verts)
	verts = slices.Compact(verts)
	if !slices.Equal(sg.verts, verts) {
		t.Fatalf("rank %d: local vertices differ from the share's endpoints", rank)
	}
	if got := sg.off[len(verts)]; got != 2*int64(len(keys)) {
		t.Fatalf("rank %d: %d adjacency slots, want %d", rank, got, 2*len(keys))
	}
	for lv := range verts {
		lo, hi := sg.off[lv], sg.off[lv+1]
		if !slices.IsSorted(sg.eIdx[lo:hi]) {
			t.Fatalf("rank %d: adjacency of local vertex %d not in local-edge order", rank, lv)
		}
		if d := int32(hi - lo); sg.drest[lv] != d || sg.aliveLen[lv] != d {
			t.Fatalf("rank %d: local vertex %d: drest %d, aliveLen %d, degree %d",
				rank, lv, sg.drest[lv], sg.aliveLen[lv], d)
		}
	}
	inAdj := func(a, b graph.Vertex, le int32) bool {
		lv := sg.localID(a)
		for s := sg.off[lv]; s < sg.off[lv+1]; s++ {
			if sg.eIdx[s] == le && sg.target[s] == b {
				return true
			}
		}
		return false
	}
	for i, e := range sg.edges {
		if !inAdj(e.U, e.V, int32(i)) || !inAdj(e.V, e.U, int32(i)) {
			t.Fatalf("rank %d: local edge %d %v missing from an endpoint's adjacency", rank, i, e)
		}
		if sg.owner[i] != -1 {
			t.Fatalf("rank %d: local edge %d born owned by %d", rank, i, sg.owner[i])
		}
	}
	if sg.freeEdges != int64(len(keys)) {
		t.Fatalf("rank %d: freeEdges %d, want %d", rank, sg.freeEdges, len(keys))
	}
}

// TestBuildSubGraphEquivalence checks that the shuffle of duplicated,
// hash-routed shards delivers every rank exactly the filter of g's
// canonical edges by gd.edgeOwner, and that buildSubGraphPacked builds the
// rank's subgraph over exactly those edges.
func TestBuildSubGraphEquivalence(t *testing.T) {
	g := gen.RMAT(11, 8, 9)
	const p = 6
	shares := gridShares(g, p)
	received := shuffleAll(t, hashShards(g, p))
	for rank := 0; rank < p; rank++ {
		if !slices.Equal(received[rank], shares[rank]) {
			t.Fatalf("rank %d: shuffle delivered %d edges, not its %d-edge grid share",
				rank, len(received[rank]), len(shares[rank]))
		}
		sg := buildSubGraphPacked(g.NumVertices(), p, received[rank])
		checkSubGraphOver(t, rank, sg, shares[rank])
	}
}

// TestSubGraphLocalIDDense spot-checks the dense global→local map against
// the sorted verts slice it is derived from.
func TestSubGraphLocalIDDense(t *testing.T) {
	g := gen.RMAT(10, 6, 3)
	sg := buildSubGraphPacked(g.NumVertices(), 4, gridShares(g, 4)[2])
	for lv, v := range sg.verts {
		if got := sg.localID(v); got != lv {
			t.Fatalf("localID(%d) = %d, want %d", v, got, lv)
		}
	}
	seen := make(map[graph.Vertex]bool, len(sg.verts))
	for _, v := range sg.verts {
		seen[v] = true
	}
	for v := graph.Vertex(0); v < g.NumVertices(); v++ {
		if !seen[v] && sg.localID(v) != -1 {
			t.Fatalf("localID(%d) = %d for non-local vertex", v, sg.localID(v))
		}
	}
}

// BenchmarkBuildSubGraphPacked measures the shard data plane's build: the
// packed-edge subgraph materialization for all 16 machines (the shuffle's
// routing/exchange is benchmarked separately by BenchmarkPartitionShards).
func BenchmarkBuildSubGraphPacked(b *testing.B) {
	g := gen.RMAT(14, 16, 21)
	const p = 16
	shares := gridShares(g, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for rank := 0; rank < p; rank++ {
			sg := buildSubGraphPacked(g.NumVertices(), p, shares[rank])
			if len(sg.edges) == 0 {
				b.Fatal("empty subgraph")
			}
		}
	}
}
