package dne

import (
	"context"
	"slices"
	"sync"
	"testing"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// hashShards splits g's edges into p shards the way gengraph does: routed
// by an endpoint-independent hash, unsorted relative to grid ownership, and
// with some duplicated edges — the raw-stream shape PartitionShards must
// digest (the shuffle dedups at the owner).
func hashShards(g *graph.Graph, p int) []*graph.Shard {
	shards := make([]*graph.Shard, p)
	for r := range shards {
		shards[r] = &graph.Shard{NumVertices: g.NumVertices()}
	}
	for i, e := range g.Edges() {
		k := graph.PackEdge(e.U, e.V)
		r := int((k * 0x9e3779b97f4a7c15 >> 33) % uint64(p))
		shards[r].Packed = append(shards[r].Packed, k)
		if i%17 == 0 { // duplicate ~6% of edges into a different shard
			shards[(r+1)%p].Packed = append(shards[(r+1)%p].Packed, k)
		}
	}
	return shards
}

func runShardCluster(t *testing.T, shards []*graph.Shard, cfg Config) (*ShardResult, []*MachineStats) {
	t.Helper()
	p := len(shards)
	c := cluster.New(p)
	var mu sync.Mutex
	var root *ShardResult
	stats := make([]*MachineStats, p)
	err := c.Run(func(comm cluster.Comm) error {
		res, st, err := PartitionShards(context.Background(), comm, shards[comm.Rank()], cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		stats[comm.Rank()] = st
		if res != nil {
			root = res
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if root == nil {
		t.Fatal("rank 0 returned no result")
	}
	return root, stats
}

func TestPartitionShardsMatchesWholeGraphRun(t *testing.T) {
	// The partitioning is a function of the graph's edge set, not of how it
	// is sharded: DNE over hash-routed, duplicated shards must reproduce the
	// run over the canonical stripes of graph.ShardsOf (the in-process
	// driver's input) bit for bit — same edges in canonical order, same
	// owners — for square and non-square grids.
	g := gen.RMAT(10, 8, 7)
	for _, p := range []int{2, 5, 9} {
		cfg := DefaultConfig()
		cfg.Seed = 11
		want, _ := runShardCluster(t, graph.ShardsOf(g, p), cfg)
		res, _ := runShardCluster(t, hashShards(g, p), cfg)
		if res.NumEdges() != g.NumEdges() {
			t.Fatalf("p=%d: %d edges collected, graph has %d", p, res.NumEdges(), g.NumEdges())
		}
		for i, e := range g.Edges() {
			if res.Keys[i] != graph.PackEdge(e.U, e.V) {
				t.Fatalf("p=%d: edge %d key mismatch", p, i)
			}
		}
		if res.NumVertices != g.NumVertices() {
			t.Fatalf("p=%d: |V| %d, graph has %d", p, res.NumVertices, g.NumVertices())
		}
		if !slices.Equal(res.Owner, want.Owner) {
			t.Fatalf("p=%d: hash-sharded owners differ from striped owners", p)
		}
	}
	// The golden DNE checksum of the repository's determinism suite
	// (RMAT(12,8,7), P=8, seed 7), reached from hash-routed shards.
	cfg := DefaultConfig()
	cfg.Seed = 7
	res, _ := runShardCluster(t, hashShards(gen.RMAT(12, 8, 7), 8), cfg)
	if got := res.Checksum(); got != 0x4b30ae3631512257 {
		t.Fatalf("hash-sharded checksum %#x, golden %#x", got, uint64(0x4b30ae3631512257))
	}
}

func TestPartitionShardsUnevenAndEmptyShards(t *testing.T) {
	// All edges concentrated in one shard, every other rank empty: the
	// shuffle must redistribute and the result must still match.
	g := gen.RMAT(9, 8, 3)
	const p = 4
	cfg := DefaultConfig()
	cfg.Seed = 2
	want, err := partitionWith(g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*graph.Shard, p)
	for r := range shards {
		shards[r] = &graph.Shard{NumVertices: g.NumVertices()}
	}
	for _, e := range g.Edges() {
		shards[3].Packed = append(shards[3].Packed, graph.PackEdge(e.U, e.V))
	}
	res, _ := runShardCluster(t, shards, cfg)
	if !slices.Equal(res.Owner, want.Partitioning.Owner) {
		t.Fatal("owners differ with concentrated shards")
	}
	bal := res.EdgeBalance()
	if bal <= 0 {
		t.Fatalf("EdgeBalance = %v", bal)
	}
}

func TestPartitionShardsOverTCPMatchesInProcess(t *testing.T) {
	// The acceptance path: a 4-rank TCP run over disjoint shards must
	// produce the identical partitioning (same checksum) as the in-process
	// run — serialization, router framing and the chunked shuffle included.
	g := gen.RMAT(8, 8, 5)
	const parts = 4
	cfg := DefaultConfig()
	cfg.Seed = 17

	inproc, err := partitionWith(g, parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := partition.Checksum(inproc.Partitioning.Owner)

	shards := hashShards(g, parts)
	addr, wait, err := cluster.StartRouter("127.0.0.1:0", parts)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
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
			mu.Lock()
			if res != nil {
				root = res
			}
			mu.Unlock()
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
	if got := root.Checksum(); got != wantSum {
		t.Fatalf("TCP shard run checksum %#x != in-process %#x", got, wantSum)
	}
}

func TestPartitionShardsRejectsBadConfig(t *testing.T) {
	c := cluster.New(2)
	shard := func() *graph.Shard {
		return &graph.Shard{NumVertices: 4, Packed: []uint64{graph.PackEdge(0, 1)}}
	}
	bad := DefaultConfig()
	bad.Alpha = 0.5
	err := c.Run(func(comm cluster.Comm) error {
		_, _, err := PartitionShards(context.Background(), comm, shard(), bad)
		return err
	})
	if err == nil {
		t.Error("alpha < 1 accepted")
	}
	// Empty shards everywhere: a collective error, not a hang.
	c = cluster.New(2)
	err = c.Run(func(comm cluster.Comm) error {
		_, _, err := PartitionShards(context.Background(), comm,
			&graph.Shard{NumVertices: 4}, DefaultConfig())
		return err
	})
	if err == nil {
		t.Error("empty shards accepted")
	}
}

// TestShardDataPlaneMemoryScaling is the headline memory claim of the
// sharded data plane: on the seeded 1M-edge RMAT at P=16, the per-rank peak
// of shard-based DNE must be at most 1/4 of g.MemoryFootprint(), the graph
// a rank would hold if it were handed all of G. The per-rank peak is the
// analytic model of MachineStats.MemBytes: the larger of the input phase
// (shard + shuffle buffers) and the expansion phase (subgraph + boundary +
// scratch slabs + the partition's own edges).
func TestShardDataPlaneMemoryScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("short: 1M-edge RMAT")
	}
	g := gen.RMAT(16, 16, 42)
	const p = 16
	cfg := DefaultConfig()
	cfg.Seed = 42

	res, stats := runShardCluster(t, graph.ShardsOf(g, p), cfg)
	if res.NumEdges() != g.NumEdges() {
		t.Fatalf("%d edges collected, graph has %d", res.NumEdges(), g.NumEdges())
	}
	var shardPeak int64
	for _, st := range stats {
		shardPeak = max(shardPeak, st.MemBytes)
	}
	graphBytes := g.MemoryFootprint()
	t.Logf("per-rank peak at P=%d on |E|=%d: shard path %.1f MiB, whole graph %.1f MiB (%.2fx)",
		p, g.NumEdges(), float64(shardPeak)/(1<<20), float64(graphBytes)/(1<<20),
		float64(graphBytes)/float64(shardPeak))
	if shardPeak <= 0 {
		t.Fatalf("missing accounting: shard peak %d", shardPeak)
	}
	if 4*shardPeak > graphBytes {
		t.Errorf("shard-path peak %d B not <= 1/4 of the whole graph's %d B", shardPeak, graphBytes)
	}
}

// BenchmarkPartitionShards measures the full shard data plane (shuffle +
// expansion) in process at P=16.
func BenchmarkPartitionShards(b *testing.B) {
	g := gen.RMAT(14, 16, 21)
	const p = 16
	cfg := DefaultConfig()
	cfg.Seed = 21
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := graph.ShardsOf(g, p)
		c := cluster.New(p)
		err := c.Run(func(comm cluster.Comm) error {
			_, _, err := PartitionShards(context.Background(), comm, shards[comm.Rank()], cfg)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
