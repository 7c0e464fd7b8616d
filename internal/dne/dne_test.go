package dne

import (
	"context"
	"fmt"
	"testing"

	"github.com/distributedne/dne/internal/bound"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// partitionWith runs the in-process driver, Partitioner, with every field
// of cfg passed as a Spec param, and checks that ConfigFromSpec maps the
// params back onto cfg unchanged.
func partitionWith(g *graph.Graph, parts int, cfg Config) (*partition.Result, error) {
	spec := partition.NewSpec(parts, cfg.Seed).
		WithParam("alpha", cfg.Alpha).
		WithParam("lambda", cfg.Lambda).
		WithParam("single_expansion", cfg.SingleExpansion).
		WithParam("max_iterations", cfg.MaxIterations).
		WithParam("broadcast_replicas", cfg.BroadcastReplicas).
		WithParam("parallel_allocation", cfg.ParallelAllocation)
	if got := ConfigFromSpec(spec); got != cfg {
		return nil, fmt.Errorf("ConfigFromSpec = %+v, want %+v", got, cfg)
	}
	return Partitioner{}.Partition(context.Background(), g, spec)
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return gen.RMAT(10, 8, 42) // 1024 vertices, ~8k edge samples
}

func TestPartitionCoversAllEdges(t *testing.T) {
	g := testGraph(t)
	for _, p := range []int{1, 2, 4, 7, 16} {
		res, err := partitionWith(g, p, DefaultConfig())
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if err := res.Partitioning.Validate(g); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

func TestBalanceWithinAlpha(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	res, err := partitionWith(g, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := res.Partitioning.EdgeCounts()
	// Cap can be overshot by one multi-expansion batch of a high-degree
	// vertex; allow the max-degree slack.
	cap := int64(cfg.Alpha*float64(g.NumEdges())/8) + g.MaxDegree()
	for q, c := range counts {
		if c > cap {
			t.Errorf("partition %d has %d edges, cap %d", q, c, cap)
		}
	}
}

func TestTheorem1UpperBoundHolds(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.SingleExpansion = true
	for _, p := range []int{2, 4, 8} {
		res, err := partitionWith(g, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		q := res.Partitioning.Measure(g)
		ub := bound.Theorem1(g.NumEdges(), int64(g.NumVertices()), p)
		if q.ReplicationFactor > ub {
			t.Errorf("P=%d: RF %.3f exceeds Theorem-1 bound %.3f", p, q.ReplicationFactor, ub)
		}
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.Seed = 7
	a, err := partitionWith(g, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := partitionWith(g, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Partitioning.Owner {
		if a.Partitioning.Owner[i] != b.Partitioning.Owner[i] {
			t.Fatalf("owner mismatch at edge %d: %d vs %d", i,
				a.Partitioning.Owner[i], b.Partitioning.Owner[i])
		}
	}
}

func TestQualityBeatsRandomHash(t *testing.T) {
	g := testGraph(t)
	res, err := partitionWith(g, 8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := res.Partitioning.Measure(g)
	// Random 1D hash on this graph gives RF well above 3; DNE should be
	// clearly better. Use a loose threshold to avoid flakiness.
	if q.ReplicationFactor > 3.0 {
		t.Errorf("DNE RF %.3f unexpectedly high", q.ReplicationFactor)
	}
}
