package dne

import (
	"context"
	"testing"
	"time"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/gen"
)

func TestChaosTransportGivesIdenticalPartitioning(t *testing.T) {
	// Cross-sender message arrival order is scrambled by the Chaos wrapper;
	// the algorithm re-sorts by (From, Seq), so the result must be
	// bit-identical to the plain in-process run. This is the executable form
	// of the §4 claim that the protocol's semantics do not depend on
	// delivery timing.
	g := gen.RMAT(9, 8, 11)
	const parts = 5
	cfg := DefaultConfig()
	cfg.Seed = 3

	plain, err := partitionWith(g, parts, cfg)
	if err != nil {
		t.Fatal(err)
	}

	shards := hashShards(g, parts)
	c := cluster.New(parts)
	var chaotic *ShardResult
	err = c.Run(func(comm cluster.Comm) error {
		w := cluster.NewChaos(comm, int64(comm.Rank())*131+7, 150*time.Microsecond)
		defer w.Close()
		res, _, err := PartitionShards(context.Background(), w, shards[comm.Rank()], cfg)
		if comm.Rank() == 0 {
			chaotic = res
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if chaotic == nil {
		t.Fatal("rank 0 returned no result")
	}
	if len(chaotic.Owner) != len(plain.Partitioning.Owner) {
		t.Fatalf("chaos run collected %d edges, plain run %d", len(chaotic.Owner), len(plain.Partitioning.Owner))
	}
	for i, o := range chaotic.Owner {
		if o != plain.Partitioning.Owner[i] {
			t.Fatalf("edge %d: chaos owner %d != plain owner %d",
				i, o, plain.Partitioning.Owner[i])
		}
	}
}
