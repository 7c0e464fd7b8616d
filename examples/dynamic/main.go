// Dynamic graphs (§8 future work): partition a snapshot with Distributed NE,
// then maintain the partitioning incrementally while the graph churns —
// insertions placed greedily with the neighbor-expansion heuristics,
// deletions retracting replicas exactly, and a periodic bounded rebalance.
//
//	go run ./examples/dynamic
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/partition"
)

func main() {
	const parts = 16

	// 1. Yesterday's snapshot of a skewed social graph, partitioned offline
	//    with Distributed NE.
	snapshot := gen.RMAT(13, 16, 42)
	res, err := dne.Partitioner{}.Partition(context.Background(), snapshot, partition.NewSpec(parts, 0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot: %v, DNE RF %.3f in %d supersteps\n",
		snapshot, res.Quality.ReplicationFactor, res.Stats.Iterations)

	// 2. Seed the incremental maintainer from the static result.
	d, err := dynpart.FromStatic(snapshot, res.Partitioning, dynpart.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seeded: %d edges, live-vertex RF %.3f\n", d.NumEdges(), d.ReplicationFactor())

	// 3. Today's churn: edges from a future region of the graph arrive
	//    (growth), 20% of events are unfriendings (deletions).
	future := gen.RMAT(13, 16, 43)
	stream := dynpart.Churn(future, 200_000, 0.2, 7)
	const batch = 50_000
	for lo := 0; lo < len(stream); lo += batch {
		hi := lo + batch
		if hi > len(stream) {
			hi = len(stream)
		}
		d.Apply(stream[lo:hi])
		moved := d.Rebalance(1000) // bounded Leopard-style re-examination
		fmt.Printf("after %7d events: |E|=%7d RF=%.3f edge-balance=%.3f (rebalanced %d)\n",
			hi, d.NumEdges(), d.ReplicationFactor(), d.EdgeBalance(), moved)
	}

	// 4. Consistency is checkable at any time (O(|E|)).
	if err := d.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("invariants hold; total migrated edges:", d.Moved())
}
