package dne

import (
	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/graph"
)

// Message tags used by the DNE superstep protocol. Every machine sends
// exactly one message of each phase tag to every machine per iteration
// (possibly with an empty payload), so receivers always know how many
// messages to expect; payloads are routed using the 2D-hash replica sets, so
// *bytes* still follow the paper's O(√P) multicast fan-out.
const (
	tagSelect cluster.Tag = cluster.TagUser + iota
	tagSync
	tagBoundary
	tagEdges
	tagResult
	tagSweep
)

// vp is a ⟨vertex, partition⟩ pair (the paper's VP/BP elements).
type vp struct {
	V graph.Vertex
	P int32
}

// selectBody carries the expansion vertices multicast to allocators
// (Line 8, Alg. 1 / Line 9, Alg. 4) plus an optional random-seed request
// (getRandomVertex(), Alg. 1 Line 7).
type selectBody struct {
	Pairs    []vp
	SeedReq  bool  // this machine asks the receiver for a random seed vertex
	SeedPart int32 // partition the seed is for
	Cancel   bool  // sender's context is cancelled; abort collectively
}

// WireSize implements cluster.Body.
func (b selectBody) WireSize() int { return 8*len(b.Pairs) + 6 }

// syncBody synchronises newly-added vertex allocation ids among replicas
// (SyncVertexAllocations, Alg. 2 Line 3).
type syncBody struct {
	Pairs []vp
}

// WireSize implements cluster.Body.
func (b syncBody) WireSize() int { return 8 * len(b.Pairs) }

// boundaryItem is one new boundary vertex with this allocator's local Drest
// contribution (Alg. 2 Lines 5–6).
type boundaryItem struct {
	V     graph.Vertex
	Drest int32
}

// boundaryBody is sent allocator → expansion process p.
type boundaryBody struct {
	Items []boundaryItem
}

// WireSize implements cluster.Body.
func (b boundaryBody) WireSize() int { return 8 * len(b.Items) }

// edgesBody carries newly allocated edges back to the expansion process that
// owns them (Alg. 2 Line 7); at the end of the run each machine holds its
// entire partition, which is the paper's data-flow goal (§3.3).
type edgesBody struct {
	Edges []graph.Edge
}

// WireSize implements cluster.Body.
func (b edgesBody) WireSize() int { return 8 * len(b.Edges) }

// shardResultBody reports (packed canonical edge, owner) pairs to the
// master — the shard path's result currency: no rank knows global edge
// indices because no rank ever saw the global edge list.
type shardResultBody struct {
	Keys  []uint64
	Owner []int32
}

// WireSize implements cluster.Body.
func (b shardResultBody) WireSize() int { return 8*len(b.Keys) + 4*len(b.Owner) }

// sweepBody instructs allocators to sweep leftover edges (only possible when
// every partition hit the α cap in the same iteration) and reports counts.
type sweepBody struct {
	Count int64
}

// WireSize implements cluster.Body.
func (b sweepBody) WireSize() int { return 8 }
