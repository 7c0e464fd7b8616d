package dne

import (
	"context"
	"sync"
	"testing"
	"testing/quick"

	"github.com/distributedne/dne/internal/bound"
	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

func TestTheorem2Tightness(t *testing.T) {
	// The Theorem-2 construction: complete graph on n vertices plus a
	// disjoint ring, partitioned |P| = n(n−1)/2 ways. The adversarial
	// schedule of the proof drives RF toward the upper bound; any valid run
	// must stay under it, and on this graph the bound is within a small
	// factor of the worst achievable RF.
	n := 6
	g := gen.RingPlusComplete(n)
	parts := n * (n - 1) / 2
	cfg := DefaultConfig()
	cfg.SingleExpansion = true
	res, err := partitionWith(g, parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partitioning.Validate(g); err != nil {
		t.Fatal(err)
	}
	q := res.Partitioning.Measure(g)
	ub := bound.Theorem1(g.NumEdges(), int64(g.NumVertices()), parts)
	if q.ReplicationFactor > ub {
		t.Errorf("RF %.3f exceeds bound %.3f", q.ReplicationFactor, ub)
	}
	// The bound must be meaningful here: for this family
	// UB = (2n(n−1)+n)/(n(n−1)/2+n) → 4 from below as n grows.
	if ub >= 4 {
		t.Errorf("unexpected bound %.3f for ring+complete (asymptote is 4)", ub)
	}
}

func TestGridEdgeOwnerConsistentWithVertexProcs(t *testing.T) {
	// Property: the owner of any edge (u,v) must be in vertexProcs(u) and
	// vertexProcs(v) — otherwise multicasts would miss allocations.
	f := func(u, v uint32, pRaw uint8) bool {
		p := int(pRaw%63) + 2
		gd := newGrid(p)
		owner := gd.edgeOwner(u, v)
		inU, inV := false, false
		for _, pr := range gd.vertexProcs(u, nil) {
			if pr == owner {
				inU = true
			}
		}
		for _, pr := range gd.vertexProcs(v, nil) {
			if pr == owner {
				inV = true
			}
		}
		return inU && inV && owner >= 0 && owner < p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGridFanoutIsSqrtP(t *testing.T) {
	for _, p := range []int{4, 16, 64, 256} {
		gd := newGrid(p)
		procs := gd.vertexProcs(12345, nil)
		// Row ∪ column ≤ R + C − overlap; must be well below p.
		if len(procs) > gd.r+gd.c {
			t.Errorf("P=%d: fanout %d exceeds R+C=%d", p, len(procs), gd.r+gd.c)
		}
		if p >= 16 && len(procs) >= p {
			t.Errorf("P=%d: fanout %d not sub-linear", p, len(procs))
		}
	}
}

func TestSubgraphPartitionIsCompleteAndDisjoint(t *testing.T) {
	// The 2D-hash distribution must place every edge on exactly one machine:
	// the shuffle of duplicated, hash-routed shards hands each rank only
	// edges it owns, and the ranks' shares together hold every edge of g
	// exactly once.
	g := gen.RMAT(9, 8, 3)
	const p = 7
	gd := newGrid(p)
	held := make(map[uint64]int)
	for rank, keys := range shuffleAll(t, hashShards(g, p)) {
		for _, k := range keys {
			if owner := gd.edgeOwner(uint32(k>>32), uint32(k)); owner != rank {
				t.Fatalf("edge %v delivered to rank %d, owner is %d", graph.UnpackEdge(k), rank, owner)
			}
			held[k]++
		}
	}
	if int64(len(held)) != g.NumEdges() {
		t.Fatalf("machines hold %d distinct edges, graph has %d", len(held), g.NumEdges())
	}
	for i, e := range g.Edges() {
		if c := held[graph.PackEdge(e.U, e.V)]; c != 1 {
			t.Fatalf("edge %d held %d times across machines", i, c)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	g := gen.RMAT(6, 4, 1)
	if _, err := partitionWith(g, 0, DefaultConfig()); err == nil {
		t.Error("numParts=0 must fail")
	}
	bad := DefaultConfig()
	bad.Alpha = 0.9
	if _, err := partitionWith(g, 2, bad); err == nil {
		t.Error("alpha<1 must fail")
	}
	bad = DefaultConfig()
	bad.Lambda = 2
	if _, err := partitionWith(g, 2, bad); err == nil {
		t.Error("lambda>1 must fail")
	}
	empty := graph.FromEdges(4, nil)
	if _, err := partitionWith(empty, 2, DefaultConfig()); err == nil {
		t.Error("empty graph must fail")
	}
}

func TestMoreMachinesThanUsefulStillCompletes(t *testing.T) {
	// More partitions than a tiny graph can fill: expansion processes idle
	// out and the sweep (if any) finishes the job.
	g := graph.FromEdges(0, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	res, err := partitionWith(g, 8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partitioning.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestStarGraphSingleHub(t *testing.T) {
	// Every edge shares the hub: RF of the hub is |P| but leaves stay at 1;
	// the algorithm must terminate and respect the cap.
	g := gen.Star(1 << 10)
	res, err := partitionWith(g, 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partitioning.Validate(g); err != nil {
		t.Fatal(err)
	}
	q := res.Partitioning.Measure(g)
	// hub replicated ≤ 4 times: RF ≤ (|V| - 1 + 4)/|V| ≈ 1.003
	if q.ReplicationFactor > 1.01 {
		t.Errorf("star RF %.4f too high", q.ReplicationFactor)
	}
}

func TestTCPTransportMatchesInProcess(t *testing.T) {
	// The same graph, seed and machine count must give the identical
	// partitioning over the TCP transport — the algorithm cannot tell
	// transports apart. Each rank gets the stripe of g the in-process
	// driver gives it, on a non-square 3-machine grid.
	g := gen.RMAT(8, 8, 5)
	const parts = 3
	cfg := DefaultConfig()
	cfg.Seed = 17

	inproc, err := partitionWith(g, parts, cfg)
	if err != nil {
		t.Fatal(err)
	}

	shards := graph.ShardsOf(g, parts)
	addr, wait, err := cluster.StartRouter("127.0.0.1:0", parts)
	if err != nil {
		t.Fatal(err)
	}
	var root *ShardResult
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for rank := 0; rank < parts; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			node, err := cluster.DialTCP(addr, rank, parts)
			if err != nil {
				errs[rank] = err
				return
			}
			res, _, err := PartitionShards(context.Background(), node, shards[rank], cfg)
			if err != nil {
				errs[rank] = err
				return
			}
			if rank == 0 {
				root = res
			}
			errs[rank] = node.Close()
		}(rank)
	}
	wg.Wait()
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if root == nil {
		t.Fatal("rank 0 returned no result")
	}
	pt := &partition.Partitioning{NumParts: parts, Owner: root.Owner}
	if err := pt.Validate(g); err != nil {
		t.Fatal(err)
	}
	for i, o := range root.Owner {
		if o != inproc.Partitioning.Owner[i] {
			t.Fatalf("edge %d: TCP owner %d != in-process owner %d",
				i, o, inproc.Partitioning.Owner[i])
		}
	}
}

func TestIterationCountsDropWithLambda(t *testing.T) {
	g := gen.RMAT(10, 8, 3)
	iters := func(lambda float64) int {
		cfg := DefaultConfig()
		cfg.Lambda = lambda
		res, err := partitionWith(g, 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Iterations
	}
	low, high := iters(0.01), iters(1.0)
	if high >= low {
		t.Errorf("iterations at λ=1 (%d) should be far below λ=0.01 (%d)", high, low)
	}
}

func TestMemAndCommReported(t *testing.T) {
	g := gen.RMAT(9, 8, 3)
	res, err := partitionWith(g, 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.PeakMemBytes <= 0 || st.CommBytes <= 0 || st.CommMessages <= 0 {
		t.Errorf("metrics missing: mem=%d comm=%d msgs=%d",
			st.PeakMemBytes, st.CommBytes, st.CommMessages)
	}
	if st.MemScore(g.NumEdges()) <= 0 {
		t.Error("mem score missing")
	}
	if st.Extra["simulated_network_ms"] <= 0 {
		t.Error("simulated network time missing")
	}
}
