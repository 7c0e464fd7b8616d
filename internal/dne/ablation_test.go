package dne

import (
	"testing"

	"github.com/distributedne/dne/internal/gen"
)

func TestBroadcastReplicasSameResultMoreTraffic(t *testing.T) {
	// Broadcasting replica updates to all machines is a strict superset of
	// the grid multicast: machines outside the row∪column hold no incident
	// edges, so every extra delivery is a no-op. The partitioning must be
	// bit-identical; the traffic must be strictly higher.
	g := gen.RMAT(10, 8, 3)
	const parts = 9
	cfg := DefaultConfig()
	cfg.Seed = 5
	grid, err := partitionWith(g, parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BroadcastReplicas = true
	bcast, err := partitionWith(g, parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range grid.Partitioning.Owner {
		if grid.Partitioning.Owner[i] != bcast.Partitioning.Owner[i] {
			t.Fatalf("edge %d: grid owner %d != broadcast owner %d",
				i, grid.Partitioning.Owner[i], bcast.Partitioning.Owner[i])
		}
	}
	gridBytes, bcastBytes := grid.Stats.CommBytes, bcast.Stats.CommBytes
	if bcastBytes <= gridBytes {
		t.Errorf("broadcast bytes %d not above grid bytes %d", bcastBytes, gridBytes)
	}
	t.Logf("fanout ablation: grid %d bytes, broadcast %d bytes (%.2fx)",
		gridBytes, bcastBytes, float64(bcastBytes)/float64(gridBytes))
}

func TestParallelAllocationCompleteAndBalanced(t *testing.T) {
	g := gen.RMAT(11, 16, 7)
	cfg := DefaultConfig()
	cfg.ParallelAllocation = true
	res, err := partitionWith(g, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partitioning.Validate(g); err != nil {
		t.Fatal(err)
	}
	q := res.Partitioning.Measure(g)
	if q.EdgeBalance > 1.35 {
		t.Errorf("edge balance %.3f too loose under parallel allocation", q.EdgeBalance)
	}
	// Quality must stay in the same class as the sequential mode.
	seq, err := partitionWith(g, 8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seqRF := seq.Partitioning.Measure(g).ReplicationFactor
	if q.ReplicationFactor > seqRF*1.25 {
		t.Errorf("parallel RF %.3f degraded beyond 25%% of sequential %.3f",
			q.ReplicationFactor, seqRF)
	}
}

func TestSelectionCountersReported(t *testing.T) {
	g := gen.RMAT(10, 8, 2)
	res, err := partitionWith(g, 8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	total, wasted := res.Stats.Extra["total_selections"], res.Stats.Extra["wasted_selections"]
	if total <= 0 {
		t.Fatal("no selections counted")
	}
	if wasted < 0 || wasted > total {
		t.Fatalf("wasted %v outside [0,%v]", wasted, total)
	}
	if c := res.Stats.Extra["cas_conflicts"]; c != 0 {
		t.Errorf("sequential mode reported %v CAS conflicts, want 0", c)
	}
}

func TestWastedSelectionsGrowWithLambda(t *testing.T) {
	// Staleness ablation (DESIGN.md §4.4): larger λ batches pop more
	// boundary vertices per superstep against the same stale scores, so the
	// wasted-delivery *rate* must not shrink as λ grows, and λ=1 must waste
	// strictly more deliveries than λ=0.01 in absolute terms per iteration.
	g := gen.RMAT(11, 16, 13)
	rate := func(lambda float64) float64 {
		cfg := DefaultConfig()
		cfg.Lambda = lambda
		res, err := partitionWith(g, 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Extra["wasted_selections"] / res.Stats.Extra["total_selections"]
	}
	lo, hi := rate(0.01), rate(1.0)
	if hi < lo*0.5 {
		t.Errorf("waste rate at λ=1 (%.4f) unexpectedly far below λ=0.01 (%.4f)", hi, lo)
	}
	t.Logf("stale-Drest waste rate: λ=0.01 %.4f, λ=1.0 %.4f", lo, hi)
}
