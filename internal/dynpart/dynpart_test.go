package dynpart

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/partition"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, DefaultOptions()); err == nil {
		t.Error("numParts=0 must fail")
	}
	if _, err := New(4, Options{Alpha: 0.5}); err == nil {
		t.Error("alpha<1 must fail")
	}
	if d, err := New(4, Options{}); err != nil || d == nil {
		t.Errorf("zero options must default, got %v", err)
	}
}

func TestAddRemoveRoundTrip(t *testing.T) {
	d, _ := New(4, DefaultOptions())
	e := graph.Edge{U: 3, V: 1}
	q := d.AddEdge(e)
	if q < 0 || q >= 4 {
		t.Fatalf("owner %d out of range", q)
	}
	if got, ok := d.Owner(graph.Edge{U: 1, V: 3}); !ok || got != q {
		t.Fatalf("canonical lookup failed: %d %v", got, ok)
	}
	if d.NumEdges() != 1 || d.NumVertices() != 2 {
		t.Fatalf("counts: E=%d V=%d", d.NumEdges(), d.NumVertices())
	}
	if rf := d.ReplicationFactor(); rf != 1 {
		t.Fatalf("single-edge RF %v, want 1", rf)
	}
	if !d.RemoveEdge(e) {
		t.Fatal("remove failed")
	}
	if d.RemoveEdge(e) {
		t.Fatal("double remove succeeded")
	}
	if d.NumEdges() != 0 || d.NumVertices() != 0 {
		t.Fatalf("not empty after removal: E=%d V=%d", d.NumEdges(), d.NumVertices())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfLoopAndDuplicateIgnored(t *testing.T) {
	d, _ := New(2, DefaultOptions())
	if q := d.AddEdge(graph.Edge{U: 5, V: 5}); q != -1 {
		t.Errorf("self loop assigned %d", q)
	}
	q1 := d.AddEdge(graph.Edge{U: 1, V: 2})
	q2 := d.AddEdge(graph.Edge{U: 2, V: 1})
	if q1 != q2 || d.NumEdges() != 1 {
		t.Errorf("duplicate add: %d %d E=%d", q1, q2, d.NumEdges())
	}
}

func TestStreamingRFBeatsRandomAssignment(t *testing.T) {
	g := gen.RMAT(11, 16, 3)
	const p = 16
	d, _ := New(p, DefaultOptions())
	for _, e := range g.Edges() {
		d.AddEdge(e)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Random assignment baseline.
	rnd, _ := New(p, DefaultOptions())
	rng := rand.New(rand.NewSource(1))
	for _, e := range g.Edges() {
		rnd.insertAt(e, int32(rng.Intn(p)))
	}
	if d.ReplicationFactor() >= rnd.ReplicationFactor()*0.8 {
		t.Errorf("greedy RF %.3f not clearly below random RF %.3f",
			d.ReplicationFactor(), rnd.ReplicationFactor())
	}
}

func TestBalanceRespectsAlpha(t *testing.T) {
	g := gen.RMAT(11, 16, 5)
	d, _ := New(8, Options{Alpha: 1.1})
	for _, e := range g.Edges() {
		d.AddEdge(e)
	}
	// The cap moves with |E|; at the end balance must be within ~α plus the
	// discreteness of one edge.
	if eb := d.EdgeBalance(); eb > 1.15 {
		t.Errorf("edge balance %.3f exceeds α slack", eb)
	}
}

func TestSeedFromDNEAndUpdate(t *testing.T) {
	g := gen.RMAT(10, 8, 7)
	res, err := dne.Partitioner{}.Partition(context.Background(), g, partition.NewSpec(8, 0))
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromStatic(g, res.Partitioning, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	staticQ := res.Quality
	// Same replica total; the RF denominators differ (Measure counts
	// isolated vertex ids, dynpart counts live vertices only).
	if got := d.Replicas(); got != staticQ.Replicas {
		t.Fatalf("seeded replicas %d != static replicas %d", got, staticQ.Replicas)
	}
	staticRF := d.ReplicationFactor() // live-vertex RF of the seed
	// Apply churn: RF must stay within a modest factor of the static
	// quality and invariants must hold.
	events := Churn(gen.RMAT(10, 8, 99), 5000, 0.2, 42)
	d.Apply(events)
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if d.ReplicationFactor() > staticRF*3 {
		t.Errorf("post-churn RF %.3f degraded beyond 3x static %.3f",
			d.ReplicationFactor(), staticRF)
	}
}

func TestSnapshotMatchesInternalMetrics(t *testing.T) {
	g := gen.RMAT(9, 8, 2)
	d, _ := New(4, DefaultOptions())
	for _, e := range g.Edges() {
		d.AddEdge(e)
	}
	snap := graph.FromEdges(0, d.Edges())
	pt, err := d.Snapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Validate(snap); err != nil {
		t.Fatal(err)
	}
	q := pt.Measure(snap)
	// The partitioning's measured RF uses |V| = snap.NumVertices() which
	// counts isolated ids in [0,max]; dynpart counts live vertices only.
	// Compare via replicas instead.
	var liveReplicas int64
	for _, st := range d.verts {
		liveReplicas += int64(len(st.counts))
	}
	if q.Replicas != liveReplicas {
		t.Errorf("snapshot replicas %d != live replicas %d", q.Replicas, liveReplicas)
	}
}

func TestRebalanceReducesOverload(t *testing.T) {
	// Force an overload: assign everything to partition 0 manually, then
	// rebalance with a big budget.
	g := gen.RMAT(9, 8, 4)
	d, _ := New(4, Options{Alpha: 1.1})
	for _, e := range g.Edges() {
		d.insertAt(e, 0)
	}
	before := d.EdgeBalance()
	moved := d.Rebalance(int(g.NumEdges()))
	if moved == 0 {
		t.Fatal("rebalance moved nothing")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	after := d.EdgeBalance()
	if after >= before {
		t.Errorf("balance %.3f did not improve from %.3f", after, before)
	}
	if d.Moved() != int64(moved) {
		t.Errorf("Moved() %d != %d", d.Moved(), moved)
	}
}

func TestRebalanceBudgetRespected(t *testing.T) {
	g := gen.RMAT(9, 8, 8)
	d, _ := New(4, Options{Alpha: 1.01})
	for _, e := range g.Edges() {
		d.insertAt(e, 0)
	}
	if moved := d.Rebalance(10); moved > 10 {
		t.Errorf("moved %d > budget 10", moved)
	}
}

func TestChurnStreamShapes(t *testing.T) {
	g := gen.RMAT(8, 8, 1)
	ev := Churn(g, 2000, 0.3, 7)
	if len(ev) != 2000 {
		t.Fatalf("got %d events", len(ev))
	}
	adds, dels := 0, 0
	for _, e := range ev {
		if e.Op == Add {
			adds++
		} else {
			dels++
		}
	}
	if dels == 0 || adds == 0 {
		t.Fatalf("degenerate stream: %d adds %d dels", adds, dels)
	}
	// Replaying must never double-add or miss-remove.
	d, _ := New(4, DefaultOptions())
	changed := d.Apply(ev)
	if changed != len(ev) {
		t.Errorf("%d/%d events were no-ops — generator emitted invalid ops", len(ev)-changed, len(ev))
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRandomOpSequenceKeepsInvariants(t *testing.T) {
	f := func(ops []uint16, pRaw uint8) bool {
		p := int(pRaw%7) + 2
		d, err := New(p, DefaultOptions())
		if err != nil {
			return false
		}
		live := make(map[graph.Edge]bool)
		for _, op := range ops {
			u := graph.Vertex(op % 23)
			v := graph.Vertex((op / 23) % 23)
			e := graph.Edge{U: u, V: v}.Canon()
			if op%3 == 0 {
				if d.RemoveEdge(e) != live[e] {
					return false
				}
				delete(live, e)
			} else {
				q := d.AddEdge(e)
				if u == v {
					if q != -1 {
						return false
					}
					continue
				}
				live[e] = true
				if q < 0 || int(q) >= p {
					return false
				}
			}
		}
		if int64(len(live)) != d.NumEdges() {
			return false
		}
		return d.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
