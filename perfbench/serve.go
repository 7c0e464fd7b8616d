package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/obs"
	"github.com/distributedne/dne/internal/partition"
	"github.com/distributedne/dne/internal/store"
)

// The serve workload: a store built over a DNE partitioning of RMAT scale
// 17 at P=8, queried read-only by an open loop. The dataset is the same
// for every run, as a fixed real-world graph would be, and the seed draws
// the query stream: the cost of KHop follows the hubs of the graph so
// closely that with a graph per seed, query latency varied by half its
// median from seed to seed (see NOTES.md).
const (
	serveScale      = 17
	serveEdgeFactor = 16
	serveParts      = 8
	serveGraphSeed  = 1
	// serveRate is the offered load in queries per second. The two workers
	// sustain 11k/s in a closed loop on a 2-core Xeon, but an open loop at
	// half that is past the knee: KHop fans out over every shard and both
	// cores, queues grow and the median Degree query waits milliseconds.
	// At 1500/s the median query runs without a queue, with room to spare
	// when the machine is shared.
	serveRate    = 1500
	serveWorkers = 2
	khopDepth    = 2
	// checkEvery is the sampling period of answer checks: every
	// checkEvery-th query's answer is compared with the generated graph.
	checkEvery = 16
)

// queryKind is one kind of the serve mix.
type queryKind int

const (
	kindDegree queryKind = iota
	kindNeighbors
	kindKHop
	numKinds
)

var kindNames = [numKinds]string{"degree", "neighbors", "khop"}

// query is one query of the mix. u picks the start vertex uniformly among
// the non-isolated vertices the target can answer for.
type query struct {
	kind queryKind
	u    float64
}

// drawQueries draws n queries of the serve mix: 50% Degree, 40%
// Neighbors, 10% KHop(k=2).
func drawQueries(seed int64, n int) []query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]query, n)
	for i := range qs {
		k := kindDegree
		switch x := rng.Float64(); {
		case x >= 0.9:
			k = kindKHop
		case x >= 0.5:
			k = kindNeighbors
		}
		qs[i] = query{kind: k, u: rng.Float64()}
	}
	return qs
}

// nonIsolated returns g's vertices with at least one edge, ascending.
func nonIsolated(g *graph.Graph) []graph.Vertex {
	var vs []graph.Vertex
	for v := graph.Vertex(0); v < g.NumVertices(); v++ {
		if g.Degree(v) > 0 {
			vs = append(vs, v)
		}
	}
	return vs
}

// pickVertex maps u to one of the vertices of vs (ascending) below limit.
func pickVertex(vs []graph.Vertex, limit uint32, u float64) (graph.Vertex, bool) {
	n := sort.Search(len(vs), func(i int) bool { return vs[i] >= limit })
	if n == 0 {
		return 0, false
	}
	return vs[int(u*float64(n))], true
}

// queryable is what the serve mix runs against: a store, or a live
// graph's published epoch.
type queryable interface {
	NumVertices() uint32
	Degree(v graph.Vertex) (int64, error)
	Neighbors(v graph.Vertex) ([]graph.Vertex, error)
	KHop(ctx context.Context, v graph.Vertex, k int) (*store.KHopResult, error)
}

// answer is one query's result, kept for checking.
type answer struct {
	q         query
	v         graph.Vertex
	degree    int64
	neighbors []graph.Vertex
	khop      *store.KHopResult
}

func runQuery(ctx context.Context, target queryable, q query, v graph.Vertex) (answer, error) {
	a := answer{q: q, v: v}
	var err error
	switch q.kind {
	case kindDegree:
		a.degree, err = target.Degree(v)
	case kindNeighbors:
		a.neighbors, err = target.Neighbors(v)
	case kindKHop:
		a.khop, err = target.KHop(ctx, v, khopDepth)
	}
	return a, err
}

// loadOut is what an open-loop phase measured.
type loadOut struct {
	byKind      [numKinds]latencies
	all         latencies
	lag, queued latencies
	answers     []answer // sampled answers
	khopVisited int64
	khops       int64
}

// openLoop offers queries at rate per second for d, from one generator to
// workers goroutines, against target. Each query is timed from when it was
// due, so a stall
// also charges the queries that waited behind it; the generator's own
// lateness and each query's wait in the queue are kept too. A query
// that fails counts as a failed operation. Every checkEvery-th answer is
// kept for checking.
func openLoop(ctx context.Context, rec *recorder, d time.Duration, rate float64, workers int,
	qs []query, verts []graph.Vertex, target queryable, tracer *obs.Tracer) *loadOut {
	type job struct {
		i        int
		due, out time.Time
	}
	out := &loadOut{}
	total := int(d.Seconds() * rate)
	// The queue holds every query of the phase, so the generator never
	// blocks on a slow worker: a backlog shows as queue wait, not as
	// generator lag.
	jobs := make(chan job, total)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				q := qs[j.i%len(qs)]
				begin := time.Now()
				v, _ := pickVertex(verts, target.NumVertices(), q.u)
				a, err := runQuery(ctx, target, q, v)
				end := time.Now()
				rec.attempt(1)
				if err != nil {
					rec.fail(fmt.Errorf("%s(%d): %w", kindNames[q.kind], v, err))
					continue
				}
				lat := end.Sub(j.due)
				out.byKind[q.kind].add(lat)
				out.all.add(lat)
				out.lag.add(j.out.Sub(j.due))
				out.queued.add(begin.Sub(j.out))
				tracer.Record(spanFrom(kindNames[q.kind], "query", begin, end.Sub(begin)))
				if q.kind == kindKHop || j.i%checkEvery == 0 {
					mu.Lock()
					if q.kind == kindKHop {
						out.khopVisited += int64(len(a.khop.Vertices))
						out.khops++
					}
					if j.i%checkEvery == 0 {
						out.answers = append(out.answers, a)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		precisePacing()
		start := time.Now()
		interval := time.Duration(float64(time.Second) / rate)
		for i := 0; i < total && ctx.Err() == nil; i++ {
			due := start.Add(time.Duration(i) * interval)
			sleepUntil(due)
			jobs <- job{i: i, due: due, out: time.Now()}
		}
	}()
	wg.Wait()
	return out
}

// serveState is the serve workload's set-up: the generated graph (kept as
// the reference for answer checks) and the store built over it.
type serveState struct {
	g     *graph.Graph
	st    *store.Store
	verts []graph.Vertex
	qs    []query
	// rf and balance are the quality of the partitioning the store serves.
	rf, balance float64
}

func runServe(ctx context.Context, b *bench) error {
	for k, v := range map[string]any{
		"graph": "rmat", "scale": serveScale, "edge_factor": serveEdgeFactor, "parts": serveParts,
		"graph_seed": serveGraphSeed, "partitioner": "dne", "rate_qps": serveRate, "workers": serveWorkers, "khop_k": khopDepth,
	} {
		b.env[k] = v
	}
	var s serveState
	err := b.setup(setupReps, func() error {
		g := gen.RMAT(serveScale, serveEdgeFactor, serveGraphSeed)
		res, err := dne.Partitioner{}.Partition(ctx, g, partition.NewSpec(serveParts, serveGraphSeed))
		if err != nil {
			return err
		}
		st, err := store.Build(g, res)
		if err != nil {
			return err
		}
		s = serveState{g: g, st: st, verts: nonIsolated(g)}
		s.rf, s.balance, err = resultQuality(g, res.Partitioning)
		return err
	})
	if err != nil {
		return err
	}
	s.qs = drawQueries(b.seed, int(b.measure.Seconds()*serveRate))
	phase := func(d time.Duration, tracer *obs.Tracer) (*loadOut, heapPeaks, rtCounters) {
		runtime.GC()
		heap := startHeapPeak()
		rt0 := readRuntime()
		out := openLoop(ctx, b.rec, d, serveRate, serveWorkers, s.qs, s.verts, s.st, tracer)
		rt := readRuntime().since(rt0)
		return out, heap.Stop(), rt
	}
	record := func(out *loadOut, peak heapPeaks) {
		for k := queryKind(0); k < numKinds; k++ {
			out.byKind[k].percentiles(b.rec, kindNames[k]+"_p50_us", kindNames[k]+"_p99_us")
		}
		peak.record(b.rec)
		b.rec.e2e("replication_factor", s.rf, "ratio", 0)
		b.rec.e2e("edge_balance", s.balance, "ratio", 0)
		for _, a := range out.answers {
			if err := checkAnswer(s.g, a); err != nil {
				b.rec.fail(err)
			}
		}
		b.rec.detail("answers_checked", len(out.answers))
	}
	if !b.trace {
		out, peak, _ := phase(b.measure-b.measure/capacityShare, nil)
		record(out, peak)
		// The throughput of serve is serve_capacity_qps.
		qps, windows := closedLoop(ctx, b.rec, b.measure/capacityShare, serveWorkers, s.qs, s.verts, s.st)
		b.rec.e2e("throughput", qps, "items/s", windows)
		b.rec.e2e("serve_capacity_qps", qps, "queries/s", windows)
		return ctx.Err()
	}
	s.st.ResetMetrics()
	plain, peak, rt := phase(b.measure/2, nil)
	record(plain, peak)
	m := s.st.Metrics()
	queries := float64(m.Queries())
	b.rec.layer("store.shard_tasks_per_query", float64(m.ShardTasks)/queries, int(queries))
	b.rec.layer("store.cross_shard_hops_per_query", m.HopsPerQuery(), int(queries))
	b.rec.layer("store.touch_imbalance", imbalance(m.PerShardTouches), int(queries))
	b.rec.layer("store.khop_visited_per_query", float64(plain.khopVisited)/float64(plain.khops), int(plain.khops))
	b.rec.layer("serve.generator_lag_p99_us", quantile(plain.lag.us, 0.99), len(plain.lag.us))
	b.rec.layer("serve.queue_wait_p99_us", quantile(plain.queued.us, 0.99), len(plain.queued.us))
	recordRuntime(b.rec, rt, len(plain.all.us))
	b.rec.layer("store.khop_alloc_bytes_per_query", khopAllocBytes(ctx, s), khopCalibration)

	t := newTracing()
	traced, _, _ := phase(b.measure/2, t.tracer)
	b.rec.layer("trace.overhead", quantile(traced.all.us, 0.5)/quantile(plain.all.us, 0.5), len(traced.all.us))
	path, err := b.writeTrace(t.tracer)
	if err != nil {
		return err
	}
	b.rec.detail("trace_file", path)
	return ctx.Err()
}

// capacityShare is the part of an untraced serve run spent measuring
// capacity: the last 1/capacityShare of the measured time.
const capacityShare = 4

// capacityWindow is the length of the windows the closed loop's rate is
// taken over.
const capacityWindow = 100 * time.Millisecond

// closedLoop runs the serve mix from workers goroutines, each issuing its
// next query as soon as the previous one returns, for d, and returns the
// median over windows of capacityWindow of the queries completed per
// second, with the number of windows: the capacity the open loop's rate is
// set against, and the serve workload's throughput. The median keeps a
// burst of interference from outside the process to the windows it hits.
func closedLoop(ctx context.Context, rec *recorder, d time.Duration, workers int, qs []query, verts []graph.Vertex, target queryable) (float64, int) {
	var next, done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				q := qs[int(next.Add(1)-1)%len(qs)]
				v, _ := pickVertex(verts, target.NumVertices(), q.u)
				rec.attempt(1)
				if _, err := runQuery(ctx, target, q, v); err != nil {
					rec.fail(fmt.Errorf("%s(%d): %w", kindNames[q.kind], v, err))
				}
				done.Add(1)
			}
		}()
	}
	var rates []float64
	last, lastN := start, int64(0)
	for end := start.Add(capacityWindow); !end.After(start.Add(d)) && ctx.Err() == nil; end = end.Add(capacityWindow) {
		time.Sleep(time.Until(end))
		now, n := time.Now(), done.Load()
		rates = append(rates, float64(n-lastN)/now.Sub(last).Seconds())
		last, lastN = now, n
	}
	wg.Wait()
	return median(rates), len(rates)
}

// khopCalibration is how many KHop queries khopAllocBytes runs.
const khopCalibration = 200

// khopAllocBytes measures the bytes one KHop query allocates: the mix's
// KHop queries run one after another with nothing else running.
func khopAllocBytes(ctx context.Context, s serveState) float64 {
	before := readRuntime()
	n := 0
	for i := 0; n < khopCalibration && i < 100*len(s.qs); i++ {
		q := s.qs[i%len(s.qs)]
		if q.kind != kindKHop {
			continue
		}
		v, _ := pickVertex(s.verts, s.st.NumVertices(), q.u)
		if _, err := s.st.KHop(ctx, v, khopDepth); err != nil {
			return 0
		}
		n++
	}
	return readRuntime().since(before).allocBytes / float64(max(n, 1))
}

// resultQuality tallies p, a partitioning of g's edges by index, for the
// replication factor and edge balance.
func resultQuality(g *graph.Graph, p *partition.Partitioning) (rf, balance float64, err error) {
	if int64(len(p.Owner)) != g.NumEdges() {
		return 0, 0, fmt.Errorf("quality: %d owners for %d edges", len(p.Owner), g.NumEdges())
	}
	tally, err := newPartTally(g.NumVertices(), p.NumParts)
	if err != nil {
		return 0, 0, err
	}
	for i, e := range g.Edges() {
		if err := tally.add(uint64(e.U)<<32|uint64(e.V), p.Owner[i]); err != nil {
			return 0, 0, err
		}
	}
	rf, balance = tally.result()
	return rf, balance, nil
}

// imbalance is the largest count over the mean count.
func imbalance(counts []int64) float64 {
	var sum, largest int64
	for _, c := range counts {
		sum += c
		largest = max(largest, c)
	}
	if sum == 0 {
		return 0
	}
	return float64(largest) * float64(len(counts)) / float64(sum)
}

// checkAnswer compares a store's answer with the generated graph.
func checkAnswer(g *graph.Graph, a answer) error {
	switch a.q.kind {
	case kindDegree:
		if want := g.Degree(a.v); a.degree != want {
			return fmt.Errorf("Degree(%d) = %d, graph has %d", a.v, a.degree, want)
		}
	case kindNeighbors:
		want := slices.Clone(g.Neighbors(a.v))
		slices.Sort(want)
		if !slices.Equal(a.neighbors, want) {
			return fmt.Errorf("Neighbors(%d): %d vertices, graph has %d (or they differ)", a.v, len(a.neighbors), len(want))
		}
	case kindKHop:
		verts, depths := bfs(g, a.v, khopDepth)
		if !slices.Equal(a.khop.Vertices, verts) || !slices.Equal(a.khop.Depths, depths) {
			return fmt.Errorf("KHop(%d,%d): %d vertices, graph has %d within %d hops (or they differ)",
				a.v, khopDepth, len(a.khop.Vertices), len(verts), khopDepth)
		}
	}
	return nil
}

// bfs returns the vertices within k hops of v ordered by (depth, id),
// with their depths: the reference for KHop.
func bfs(g *graph.Graph, v graph.Vertex, k int) ([]graph.Vertex, []int32) {
	seen := map[graph.Vertex]bool{v: true}
	verts, depths := []graph.Vertex{v}, []int32{0}
	frontier := []graph.Vertex{v}
	for d := int32(1); int(d) <= k && len(frontier) > 0; d++ {
		var next []graph.Vertex
		for _, u := range frontier {
			for _, w := range g.Neighbors(u) {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
				}
			}
		}
		slices.Sort(next)
		for _, w := range next {
			verts = append(verts, w)
			depths = append(depths, d)
		}
		frontier = next
	}
	return verts, depths
}
