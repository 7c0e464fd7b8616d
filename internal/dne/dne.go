// Package dne implements Distributed Neighbor Expansion (Distributed NE),
// the parallel and distributed edge-partitioning algorithm of Hanai et al.,
// "Distributed Edge Partitioning for Trillion-edge Graphs", VLDB 2019.
//
// The algorithm computes a |P|-way edge partitioning by growing all |P|
// partitions simultaneously ("parallel expansion", §3): each partition
// greedily expands its edge set from a random seed vertex, always expanding
// the boundary vertex whose remaining degree — and therefore the increase in
// vertex replication — is minimal. Edges are held uniquely by 2D-hashed
// allocation processes; vertices are replicated and synchronised (§4).
// Multi-expansion (§5) batches the λ·|B| best boundary vertices per
// superstep to cut iteration counts by orders of magnitude.
//
// PartitionShards is the one driver: every machine feeds in only its own
// edge shard, shuffles it to the 2D-hash grid owners and runs the superstep
// protocol over its received share, so no machine ever holds the whole
// graph (§3.3–§4). It runs over any cluster.Comm — the in-process
// message-passing cluster of internal/cluster, where every machine is a
// goroutine, or TCP across OS processes (cmd/dneworker). Partitioner runs
// it in process over stripes of an in-memory graph; PartitionShardsFT adds
// superstep checkpoints and rejoin. All coordination is via tagged,
// size-accounted messages, so communication volume and iteration counts are
// faithful to the distributed algorithm even on one host.
package dne

import (
	"context"
	"fmt"
	"time"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

// defaultMaxIterations bounds the superstep loop as a safety net; realistic
// runs with λ=0.1 finish in tens of iterations (§5, Fig. 6).
const defaultMaxIterations = 1 << 20

// Config holds the algorithm parameters. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// Alpha is the imbalance factor α ≥ 1.0 of Eq. (2). Paper setting: 1.1.
	Alpha float64
	// Lambda is the multi-expansion factor λ ∈ (0,1] (§5). Paper setting:
	// 0.1. Ignored when SingleExpansion is set.
	Lambda float64
	// SingleExpansion selects exactly one boundary vertex per iteration,
	// the Theorem-1 setting (§6).
	SingleExpansion bool
	// Seed drives every random choice (initial vertices, seed scans).
	Seed int64
	// MaxIterations bounds the superstep loop (0 = a large default).
	MaxIterations int
	// BroadcastReplicas disables the 2D-hash fanout optimisation: selected
	// vertices are multicast to all |P| machines instead of the O(√P) grid
	// row ∪ column. Ablation knob for DESIGN.md §4.2; quality is unaffected,
	// communication volume grows.
	BroadcastReplicas bool
	// ParallelAllocation processes the received selections of each
	// allocation superstep on multiple goroutines per machine, resolving
	// contended edge claims by CAS exactly as the paper's Algorithm 3 ("do
	// in parallel", conflicts "solved by a CAS operation"). Edge ownership
	// between simultaneously-requesting partitions then depends on race
	// winners, so runs are NOT bit-reproducible; the default sequential mode
	// is deterministic and allocates identically. Ablation knob for
	// DESIGN.md §4.1 (MachineStats.CASConflicts).
	ParallelAllocation bool
}

// DefaultConfig returns the paper's parameter setting (α=1.1, λ=0.1).
func DefaultConfig() Config {
	return Config{Alpha: 1.1, Lambda: 0.1}
}

// SimulatedNetworkTime estimates the network component a DNE run with the
// given statistics would add on a physical cluster of st.NumParts machines
// under the cost model — the substitution bridge between the in-process
// runtime (memcpy-fast communication) and the paper's InfiniBand testbed.
// Each superstep is charged four synchronisation rounds (select, sync,
// boundary/edges, and the termination all-gathers), matching the protocol
// in machine.go.
func SimulatedNetworkTime(st *partition.Stats, m cluster.CostModel) time.Duration {
	return m.Estimate(st.CommMessages, st.CommBytes, st.Iterations*4, st.NumParts)
}

// validate checks the algorithm parameters.
func (cfg Config) validate() error {
	if cfg.Alpha < 1.0 {
		return fmt.Errorf("dne: alpha must be >= 1.0, got %g", cfg.Alpha)
	}
	if !cfg.SingleExpansion && (cfg.Lambda <= 0 || cfg.Lambda > 1) {
		return fmt.Errorf("dne: lambda must be in (0,1], got %g", cfg.Lambda)
	}
	return nil
}

// Partitioner runs Distributed NE in process behind the v2
// partition.Partitioner interface. It is stateless: configuration arrives
// in the Spec (alpha, lambda, single_expansion, broadcast_replicas,
// parallel_allocation, max_iterations), and the run's metrics are folded
// into Result.Stats — iteration count, communication volume, the analytic
// peak memory (the Fig. 9 MemScore numerator) and, in Extra, the selection
// counters and the simulated network time under the paper's InfiniBand
// cost model.
type Partitioner struct{}

// Name implements partition.Partitioner.
func (Partitioner) Name() string { return "D.NE" }

// ConfigFromSpec maps a resolved Spec onto the algorithm's Config,
// applying the paper's defaults for unset parameters.
func ConfigFromSpec(spec partition.Spec) Config {
	return Config{
		Alpha:              spec.Float("alpha", 1.1),
		Lambda:             spec.Float("lambda", 0.1),
		SingleExpansion:    spec.Bool("single_expansion", false),
		Seed:               spec.Seed,
		MaxIterations:      spec.Int("max_iterations", 0),
		BroadcastReplicas:  spec.Bool("broadcast_replicas", false),
		ParallelAllocation: spec.Bool("parallel_allocation", false),
	}
}

// Partition implements partition.Partitioner. It runs the one DNE driver,
// PartitionShards, on every rank of an in-process cluster of
// spec.NumParts machines, each fed a contiguous stripe of g's canonical
// edges (graph.ShardsOf), so the in-process simulation exercises the exact
// code path of a multi-process run. Cancelling ctx aborts the run at the
// next superstep boundary, collectively across all machines.
func (Partitioner) Partition(ctx context.Context, g *graph.Graph, spec partition.Spec) (*partition.Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := spec.NumParts
	cfg := ConfigFromSpec(spec)
	start := time.Now()
	shards := graph.ShardsOf(g, p)
	machines := make([]*MachineStats, p)
	var root *ShardResult
	err := cluster.New(p).Run(func(comm cluster.Comm) error {
		res, ms, err := PartitionShards(ctx, comm, shards[comm.Rank()], cfg)
		machines[comm.Rank()] = ms
		if comm.Rank() == 0 {
			root = res
		}
		return err
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	// The collected keys are the canonical edge list in ascending order, so
	// the owners line up 1:1 with g's edge indices.
	if root.NumEdges() != g.NumEdges() {
		return nil, fmt.Errorf("dne: collected %d edges, graph has %d", root.NumEdges(), g.NumEdges())
	}
	out := &partition.Result{Partitioning: &partition.Partitioning{NumParts: p, Owner: root.Owner}}
	st := &out.Stats
	st.Method = "dne"
	st.NumParts = p
	st.AddPhase("expand", elapsed)
	var conflicts, wasted, selections int64
	for _, ms := range machines {
		st.Iterations = max(st.Iterations, ms.Iterations)
		st.PeakMemBytes += ms.MemBytes
		st.CommBytes += ms.CommBytes
		st.CommMessages += ms.CommMsgs
		conflicts += ms.CASConflicts
		wasted += ms.WastedSelections
		selections += ms.TotalSelections
	}
	st.SweptEdges = machines[0].SweptEdges
	st.SetExtra("cas_conflicts", float64(conflicts))
	st.SetExtra("wasted_selections", float64(wasted))
	st.SetExtra("total_selections", float64(selections))
	st.SetExtra("simulated_network_ms", float64(SimulatedNetworkTime(st, cluster.InfiniBandEDR()).Microseconds())/1000)
	out.Finish(g, start)
	return out, nil
}
