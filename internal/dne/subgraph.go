package dne

import (
	"math/rand"
	"sync/atomic"

	"github.com/distributedne/dne/internal/bitset"
	"github.com/distributedne/dne/internal/graph"
)

// subGraph is one allocation process's share of the input graph (§4 "Data
// Structure"): a CSR over the locally-owned (unique) edges, per-edge atomic
// owner words, and per-local-vertex partition bitsets and free-degree
// counters. Vertices are replicated across machines; edges are not.
//
// All per-vertex state is held in flat slabs indexed by local vertex id, and
// the global→local translation is a dense array (lid) rather than a binary
// search — the paper's compact-arrays-not-hash-tables argument (§7.3)
// applied to the reproduction's own inner loops.
type subGraph struct {
	numParts int

	// Distinct local vertices, sorted; index into the arrays below is the
	// "local vertex id".
	verts []graph.Vertex

	// lid[g] is the local id of global vertex g, or -1 when g has no local
	// edge. Dense: len = |V| of the input graph.
	lid []int32

	// CSR over local edges: each local undirected edge appears in two
	// adjacency lists.
	off    []int64
	target []graph.Vertex // neighbor (global id)
	eIdx   []int32        // local edge index for the adjacency slot

	// aliveLen[lv] bounds the adjacency slots of lv still worth scanning:
	// the sequential allocation paths compact surviving free slots to the
	// front of lv's range (stably, preserving ascending edge-index order),
	// so repeated expansions of hub vertices do not rescan allocated edges.
	// Invariant: every free local edge incident to lv lies in
	// target/eIdx[off[lv] : off[lv]+aliveLen[lv]].
	aliveLen []int32

	edges []graph.Edge // local edges
	owner []int32      // partition owning local edge i, or -1 (CAS'd)

	// Partition membership bitsets, one per local vertex, packed into a
	// single slab of wordsPer words each; partSet(lv) is the view.
	partWords []uint64
	wordsPer  int

	drest []int32 // free (unallocated) local degree per local vertex

	freeEdges int64 // number of unallocated local edges
	seedCur   int   // rotating cursor for random-seed scans

	// conflicts counts same-superstep contention: a partition found an edge
	// it wanted already claimed *in the current superstep* by a different
	// partition (the paper's CAS-resolved allocation conflict, §4). Only
	// populated under Config.ParallelAllocation. Read atomically.
	conflicts int64
	// claimIter tags each local edge with the superstep in which it was
	// claimed (parallel mode only; used to recognise same-round contention).
	claimIter []int32
}

// buildSubGraphPacked materializes the subgraph from sorted, deduplicated
// packed edge keys — the form the distributed shuffle delivers. No global
// edge array is consulted and no global edge indices exist; result
// collection keys by the packed edges themselves. Ascending packed order is
// ascending canonical order, so local edge i precedes local edge j exactly
// when it does in the global canonical edge list.
func buildSubGraphPacked(numVertices uint32, numParts int, packed []uint64) *subGraph {
	sg := &subGraph{numParts: numParts}
	sg.edges = make([]graph.Edge, len(packed))
	for i, k := range packed {
		sg.edges[i] = graph.UnpackEdge(k)
	}

	// Distinct local vertices, ascending, and the dense global→local map:
	// mark endpoints in lid, then one scan over the id space assigns local
	// ids in ascending global order.
	nGlobal := int(numVertices)
	sg.lid = make([]int32, nGlobal)
	for i := range sg.lid {
		sg.lid[i] = -1
	}
	for _, e := range sg.edges {
		sg.lid[e.U] = 0
		sg.lid[e.V] = 0
	}
	count := 0
	for v := 0; v < nGlobal; v++ {
		if sg.lid[v] == 0 {
			count++
		}
	}
	sg.verts = make([]graph.Vertex, 0, count)
	for v := 0; v < nGlobal; v++ {
		if sg.lid[v] == 0 {
			sg.lid[v] = int32(len(sg.verts))
			sg.verts = append(sg.verts, graph.Vertex(v))
		}
	}

	n := len(sg.verts)
	sg.off = make([]int64, n+1)
	for _, e := range sg.edges {
		sg.off[sg.lid[e.U]+1]++
		sg.off[sg.lid[e.V]+1]++
	}
	for v := 0; v < n; v++ {
		sg.off[v+1] += sg.off[v]
	}
	sg.target = make([]graph.Vertex, sg.off[n])
	sg.eIdx = make([]int32, sg.off[n])
	cursor := make([]int32, n)
	for i, e := range sg.edges {
		lu, lv := sg.lid[e.U], sg.lid[e.V]
		pu := sg.off[lu] + int64(cursor[lu])
		sg.target[pu] = e.V
		sg.eIdx[pu] = int32(i)
		cursor[lu]++
		pv := sg.off[lv] + int64(cursor[lv])
		sg.target[pv] = e.U
		sg.eIdx[pv] = int32(i)
		cursor[lv]++
	}
	sg.owner = make([]int32, len(sg.edges))
	for i := range sg.owner {
		sg.owner[i] = -1
	}
	sg.wordsPer = bitset.WordsFor(numParts)
	sg.partWords = make([]uint64, n*sg.wordsPer)
	sg.drest = make([]int32, n)
	sg.aliveLen = make([]int32, n)
	for v := 0; v < n; v++ {
		d := int32(sg.off[v+1] - sg.off[v])
		sg.drest[v] = d
		sg.aliveLen[v] = d
	}
	sg.freeEdges = int64(len(sg.edges))
	return sg
}

// localID returns the local index of global vertex v, or -1 if v is not
// local.
func (sg *subGraph) localID(v graph.Vertex) int { return int(sg.lid[v]) }

// partSet returns the partition-membership bitset view of local vertex lv.
func (sg *subGraph) partSet(lv int) bitset.Set {
	return bitset.FromWords(sg.partWords[lv*sg.wordsPer : (lv+1)*sg.wordsPer])
}

// allocateEdge tries to claim local edge le for partition p; it returns true
// on success. Conflicts between concurrently expanding partitions are
// resolved by this CAS (§4: "The conflict ... is solved by a CAS operation").
func (sg *subGraph) allocateEdge(le int32, p int32) bool {
	if !atomic.CompareAndSwapInt32(&sg.owner[le], -1, p) {
		return false
	}
	e := sg.edges[le]
	if lu := sg.lid[e.U]; lu >= 0 {
		atomic.AddInt32(&sg.drest[lu], -1)
	}
	if lv := sg.lid[e.V]; lv >= 0 {
		atomic.AddInt32(&sg.drest[lv], -1)
	}
	atomic.AddInt64(&sg.freeEdges, -1)
	return true
}

// allocOneHop performs Alg. 3 AllocateOneHopNeighbors for a single received
// ⟨v, p⟩ pair. It returns the new local boundary pairs ⟨u, p⟩ and appends the
// allocated local edge indices to out. Sequential mode only: every free slot
// of v is claimed here, so v's alive adjacency empties.
func (sg *subGraph) allocOneHop(v graph.Vertex, p int32, out *[]int32) []vp {
	lv := int64(sg.lid[v])
	if lv < 0 {
		return nil
	}
	var bp []vp
	base := sg.off[lv]
	for s := base; s < base+int64(sg.aliveLen[lv]); s++ {
		le := sg.eIdx[s]
		if atomic.LoadInt32(&sg.owner[le]) != -1 {
			continue
		}
		if !sg.allocateEdge(le, p) {
			continue
		}
		u := sg.target[s]
		sg.partSet(int(lv)).Set(int(p))
		if lu := sg.lid[u]; lu >= 0 {
			sg.partSet(int(lu)).Set(int(p))
		}
		bp = append(bp, vp{V: u, P: p})
		*out = append(*out, le)
	}
	// Every slot in the alive range is now allocated (either previously or
	// by this call), so the compacted free adjacency of v is empty.
	sg.aliveLen[lv] = 0
	return bp
}

// allocOneHopDeferred is allocOneHop for the intra-machine parallel mode
// (Config.ParallelAllocation): edge claims use the CAS exactly as in the
// paper's Algorithm 3, but partition-bitset updates are *recorded* into defs
// instead of applied, because bitsets are not atomic; the caller applies them
// sequentially after the parallel phase. iter tags claims so that losing a
// wanted edge to a different partition *within the same superstep* is
// counted as an allocation conflict (§4). Returns the number of edges
// claimed. Workers may scan the same vertex concurrently, so this path reads
// the alive range but never compacts it.
func (sg *subGraph) allocOneHopDeferred(v graph.Vertex, p int32, iter int32, out *[]int32, bp *[]vp, defs *[]vp) int {
	lv := int64(sg.lid[v])
	if lv < 0 {
		return 0
	}
	if sg.claimIter == nil {
		panic("dne: allocOneHopDeferred requires claimIter (parallel mode)")
	}
	claimed := 0
	base := sg.off[lv]
	for s := base; s < base+int64(sg.aliveLen[lv]); s++ {
		le := sg.eIdx[s]
		if o := atomic.LoadInt32(&sg.owner[le]); o != -1 {
			if o != p && atomic.LoadInt32(&sg.claimIter[le]) == iter {
				atomic.AddInt64(&sg.conflicts, 1)
			}
			continue
		}
		if !sg.allocateEdge(le, p) {
			atomic.AddInt64(&sg.conflicts, 1)
			continue // lost the CAS race itself
		}
		atomic.StoreInt32(&sg.claimIter[le], iter)
		claimed++
		u := sg.target[s]
		*defs = append(*defs, vp{V: v, P: p}, vp{V: u, P: p})
		*bp = append(*bp, vp{V: u, P: p})
		*out = append(*out, le)
	}
	return claimed
}

// applySync records that vertex v now belongs to partition p (replica
// synchronisation, Alg. 2 Line 3). Returns the local id, or -1.
func (sg *subGraph) applySync(v graph.Vertex, p int32) int {
	lv := sg.lid[v]
	if lv >= 0 {
		sg.partSet(int(lv)).Set(int(p))
	}
	return int(lv)
}

// allocTwoHop performs Alg. 3 AllocateTwoHopNeighbors for one synced boundary
// vertex u: any free local edge (u,w) whose endpoints already share a
// partition is allocated to the smallest such partition (Condition (5) never
// increases replication). sizesView is this machine's working view of the
// global |Eq| vector (gathered last iteration plus local increments); it is
// used both for the argmin on Line 16 and to enforce the α cap of Eq. (2),
// and is incremented for every allocation made here. Allocated local edge
// indices are appended to out.
// twoBudget additionally caps how many two-hop edges this machine may give
// each partition this iteration (a 1/P fair share of the partition's
// remaining capacity), bounding the cross-machine overshoot that the
// one-iteration-stale sizesView cannot see.
// Runs in the sequential phase, so it stably compacts u's surviving free
// slots to the front of the alive range as it scans.
func (sg *subGraph) allocTwoHop(u graph.Vertex, sizesView, twoBudget []int64, capEdges int64, scratch bitset.Set, out *[]int32) {
	lu := int64(sg.lid[u])
	if lu < 0 {
		return
	}
	if atomic.LoadInt32(&sg.drest[lu]) == 0 {
		return
	}
	base := sg.off[lu]
	alive := int64(sg.aliveLen[lu])
	setU := sg.partSet(int(lu))
	var keep int64
	for s := int64(0); s < alive; s++ {
		le := sg.eIdx[base+s]
		if atomic.LoadInt32(&sg.owner[le]) != -1 {
			continue // allocated: drop from the alive range
		}
		w := sg.target[base+s]
		lw := sg.lid[w]
		if lw < 0 {
			// Never allocatable here; keep (still a free edge of u).
			sg.eIdx[base+keep] = le
			sg.target[base+keep] = w
			keep++
			continue
		}
		if !bitset.IntersectInto(scratch, setU, sg.partSet(int(lw))) {
			sg.eIdx[base+keep] = le
			sg.target[base+keep] = w
			keep++
			continue
		}
		best := int32(-1)
		var bestSize int64
		scratch.ForEach(func(q int) {
			if sizesView[q] >= capEdges || twoBudget[q] <= 0 {
				return // would violate the balance constraint
			}
			if best == -1 || sizesView[q] < bestSize {
				best = int32(q)
				bestSize = sizesView[q]
			}
		})
		if best == -1 {
			sg.eIdx[base+keep] = le
			sg.target[base+keep] = w
			keep++
			continue
		}
		if sg.allocateEdge(le, best) {
			sizesView[best]++
			twoBudget[best]--
			*out = append(*out, le)
		} else {
			sg.eIdx[base+keep] = le
			sg.target[base+keep] = w
			keep++
		}
	}
	sg.aliveLen[lu] = int32(keep)
}

// localDrest returns the current free local degree of v (Alg. 2 Line 5).
func (sg *subGraph) localDrest(v graph.Vertex) int32 {
	lv := sg.lid[v]
	if lv < 0 {
		return 0
	}
	return atomic.LoadInt32(&sg.drest[lv])
}

// randomSeed picks a vertex that still has a free local edge, scanning from a
// rotating cursor so repeated seeds cover the whole subgraph. Returns false
// if every local edge is allocated.
func (sg *subGraph) randomSeed(rng *rand.Rand) (graph.Vertex, bool) {
	if atomic.LoadInt64(&sg.freeEdges) == 0 {
		return 0, false
	}
	n := len(sg.edges)
	start := sg.seedCur
	if n > 0 {
		start = (sg.seedCur + rng.Intn(n)) % n
	}
	for k := 0; k < n; k++ {
		le := (start + k) % n
		if atomic.LoadInt32(&sg.owner[le]) == -1 {
			sg.seedCur = (le + 1) % n
			e := sg.edges[le]
			if rng.Intn(2) == 0 {
				return e.U, true
			}
			return e.V, true
		}
	}
	return 0, false
}

// sweepLeftovers force-assigns every remaining free edge to the smallest
// candidate partition (preferring partitions already covering an endpoint).
// It returns the number of swept edges. Used only when every partition hit
// the α cap with edges still unallocated (§ DESIGN.md "leftover sweep").
func (sg *subGraph) sweepLeftovers(partSizes []int64, scratch bitset.Set) int64 {
	var swept int64
	for le := range sg.edges {
		if atomic.LoadInt32(&sg.owner[le]) != -1 {
			continue
		}
		e := sg.edges[le]
		lu, lv := sg.lid[e.U], sg.lid[e.V]
		best := int32(-1)
		var bestSize int64
		consider := func(q int) {
			if best == -1 || partSizes[q] < bestSize {
				best = int32(q)
				bestSize = partSizes[q]
			}
		}
		scratch.Reset()
		if lu >= 0 {
			scratch.Or(sg.partSet(int(lu)))
		}
		if lv >= 0 {
			scratch.Or(sg.partSet(int(lv)))
		}
		if !scratch.Empty() {
			scratch.ForEach(consider)
		} else {
			for q := 0; q < sg.numParts; q++ {
				consider(q)
			}
		}
		if sg.allocateEdge(int32(le), best) {
			partSizes[best]++
			swept++
		}
	}
	return swept
}

// memoryFootprint returns an analytic byte count of this subgraph's arrays,
// used by the Fig-9 memory score. The dense global→local map and the packed
// partition-bitset slab are charged at their true flat-array sizes; no
// hash-map entry overhead exists any more.
func (sg *subGraph) memoryFootprint() int64 {
	return int64(len(sg.verts))*4 +
		int64(len(sg.lid))*4 +
		int64(len(sg.off))*8 +
		int64(len(sg.target))*4 +
		int64(len(sg.eIdx))*4 +
		int64(len(sg.aliveLen))*4 +
		int64(len(sg.edges))*8 +
		int64(len(sg.owner))*4 +
		int64(len(sg.claimIter))*4 +
		int64(len(sg.drest))*4 +
		int64(len(sg.partWords))*8
}
