package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/live"
	"github.com/distributedne/dne/internal/partition"
)

// exactCounters runs one traced call of each partition workload and one
// live cycle, at small sizes, and returns the counters later changes may
// rest count-based claims on.
func exactCounters(t *testing.T, seed int64) map[string]string {
	t.Helper()
	ctx := context.Background()
	out := map[string]string{}
	put := func(k string, v any) { out[k] = fmt.Sprint(v) }
	for name, c := range map[string]*dneCase{
		"dne":     {family: "rmat", scale: 12, edgeFactor: 8, parts: 4, cfg: dne.DefaultConfig(), seeds: dneSeeds(seed, 1)},
		"dne-tcp": {tcp: true, family: "er", scale: 12, edgeFactor: 8, parts: 4, cfg: dne.DefaultConfig(), seeds: dneSeeds(seed, 1)},
	} {
		if err := c.setUp(ctx, seed); err != nil {
			t.Fatal(err)
		}
		tr := newTracing()
		o, err := c.call(ctx, tr)
		if err != nil {
			t.Fatal(err)
		}
		rf, bal, err := c.quality(o)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"cluster.messages", "cluster.bytes_accounted", "dne.supersteps"} {
			put(name+" "+k, tr.sums[k])
		}
		if c.tcp {
			put(name+" wire_bytes", o.wireBytes)
		}
		put(name+" checksum", o.checksum)
		put(name+" replication_factor", rf)
		put(name+" edge_balance", bal)
	}

	sc := &streamCase{scale: 13, edgeFactor: 8, stripes: 4, parts: 4, method: "hdrf", seed: seed}
	if err := sc.setUp(ctx, seed); err != nil {
		t.Fatal(err)
	}
	tr := newTracing()
	o, err := sc.call(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	rf, bal, err := sc.quality(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"graph.bytes_read", "graph.passes"} {
		put("stream "+k, tr.sums[k])
	}
	put("stream checksum", o.checksum)
	put("stream replication_factor", rf)
	put("stream edge_balance", bal)

	g := gen.RMAT(11, 8, seed)
	events := dynpart.Churn(g, int(liveEventFactor*float64(g.NumEdges())), liveDeleteP, seed)
	var cur atomic.Pointer[live.Live]
	c, err := ingestCycle(ctx, filepath.Join(os.TempDir(), fmt.Sprint("selftest-live-", seed)), events, &cur, make(chan struct{}), nil)
	if err != nil || c.apply != nil || c.checks != nil {
		t.Fatal(err, c.apply, c.checks)
	}
	put("live checksum", c.checksum)
	put("live replication_factor", c.rf)
	put("live edge_balance", c.balance)
	return out
}

// seedInvariant are the counters that do not depend on the input: every
// pipelined HDRF run makes the same passes over its source.
var seedInvariant = map[string]bool{"stream graph.passes": true}

func TestExactCountersRepeatAndMoveWithSeed(t *testing.T) {
	a, b, other := exactCounters(t, 1), exactCounters(t, 1), exactCounters(t, 2)
	for _, k := range sortedKeys(a) {
		if a[k] != b[k] {
			t.Errorf("%s: %s then %s for the same seed", k, a[k], b[k])
		}
		if a[k] == other[k] && !seedInvariant[k] {
			t.Errorf("%s: %s for seeds 1 and 2", k, a[k])
		}
	}
}

// TestDNEClassesSeeTraffic pins the tag numbering classOf relies on: a
// traced DNE call sends messages in every class it maps tags to.
func TestDNEClassesSeeTraffic(t *testing.T) {
	for _, c := range []*dneCase{smallDNE(t, false), smallDNE(t, true)} {
		tr := newTracing()
		if _, err := c.call(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
		for _, cl := range classNames {
			if tr.sums["cluster.messages."+cl] == 0 {
				t.Errorf("tcp=%v: no %s messages", c.tcp, cl)
			}
		}
		if got, want := tr.sums["cluster.messages"], tr.sums["cluster.messages.select"]; got <= want {
			t.Errorf("tcp=%v: %v messages in all, %v select", c.tcp, got, want)
		}
	}
}

// TestQualityAgreesWithPartitionQuality checks the benchmark's own
// replication factor against partition.Quality, which divides by every
// vertex id, isolated ones included: the benchmark's must equal its
// replicas over the vertices they cover.
func TestQualityAgreesWithPartitionQuality(t *testing.T) {
	c := smallDNE(t, false)
	res, _, err := partitionInProcess(context.Background(), c.shards(), c.config(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	rf, bal, err := c.quality(callOut{result: res})
	if err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	for _, s := range c.stripes {
		keys = append(keys, s...)
	}
	g := graph.FromPacked(c.numVertices, keys)
	q := (&partition.Partitioning{NumParts: res.NumParts, Owner: res.Owner}).Measure(g)
	covered := q.Replicas - q.VertexCuts
	if want := float64(q.Replicas) / float64(covered); math.Abs(rf-want) > 1e-12 {
		t.Errorf("replication factor %v, partition.Quality's replicas over covered vertices %v", rf, want)
	}
	if math.Abs(bal-q.EdgeBalance) > 1e-12 {
		t.Errorf("edge balance %v, partition.Quality %v", bal, q.EdgeBalance)
	}
	if int64(g.NumVertices()) == covered {
		t.Error("the test graph has no isolated vertex, so it cannot tell the definitions apart")
	}
}
