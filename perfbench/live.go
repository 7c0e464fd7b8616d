package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/live"
	"github.com/distributedne/dne/internal/obs"
)

// The live workload: one writer ingests a churn stream of RMAT scale 15
// into a fresh live graph at P=8, then applies a departure wave,
// rebalances and compacts (one cycle), while one reader runs the serve mix
// against the published epoch at a fixed rate. Scale 15 and not 16: a
// scale-16 cycle takes 5–9 s on a 2-vCPU Xeon VM, so a 10 s run completed
// one or two and its rate followed whichever cycle a stall hit; at scale
// 15 a run completes 3–4 and the median over them holds.
const (
	liveScale       = 15
	liveEdgeFactor  = 16
	liveParts       = 8
	liveBatch       = 4096
	liveEventFactor = 1.2 // churn events per base edge
	liveDeleteP     = 0.1
	// liveWave is the share of each low partition's edges the departure
	// wave removes; without it the greedy insert stream stays balanced and
	// Rebalance has nothing to move.
	liveWave            = 0.5
	liveRebalanceBudget = 10000
	liveReadRate        = 1000
)

// liveCycle is what one ingest cycle measured.
type liveCycle struct {
	ingest        time.Duration
	batches       []float64 // seconds per Apply batch
	compact       time.Duration
	rebalance     time.Duration
	moved         int
	migrated      int64
	compactions   int64
	diskPerEdge   float64
	checksum      uint64
	rf, balance   float64
	events        int
	apply, checks error
}

func runLive(ctx context.Context, b *bench) error {
	for k, v := range map[string]any{
		"graph": "rmat", "scale": liveScale, "edge_factor": liveEdgeFactor, "parts": liveParts,
		"batch": liveBatch, "delete_p": liveDeleteP, "events_per_edge": liveEventFactor,
		"read_rate_qps": liveReadRate, "rebalance_budget": liveRebalanceBudget,
	} {
		b.env[k] = v
	}
	var events []dynpart.Event
	var verts []graph.Vertex
	err := b.setup(setupReps, func() error {
		g := gen.RMAT(liveScale, liveEdgeFactor, b.seed)
		events = dynpart.Churn(g, int(liveEventFactor*float64(g.NumEdges())), liveDeleteP, b.seed)
		verts = nonIsolated(g)
		return nil
	})
	if err != nil {
		return err
	}
	qs := drawQueries(b.seed, int(b.measure.Seconds()*liveReadRate))
	b.rec.detail("events", len(events))

	var cycleNo int
	phase := func(d time.Duration, tracer *obs.Tracer) ([]liveCycle, *loadOut, heapPeaks, rtCounters, error) {
		runtime.GC()
		heap := startHeapPeak()
		rt0 := readRuntime()
		var cur atomic.Pointer[live.Live]
		ready := make(chan struct{})
		stop := make(chan struct{})
		var reads *loadOut
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ready
			if cur.Load() == nil { // the first cycle failed before publishing
				reads = &loadOut{}
				return
			}
			reads = readUntil(ctx, b.rec, stop, qs, verts, func() queryable { return cur.Load().Epoch() }, tracer)
		}()
		var cycles []liveCycle
		var runErr error
		start := time.Now()
		for len(cycles) == 0 || time.Since(start) < d {
			cycleNo++
			runtime.GC() // each cycle starts from a collected heap
			c, err := ingestCycle(ctx, filepath.Join(os.TempDir(), "live-"+strconv.Itoa(cycleNo)), events, &cur, ready, tracer)
			b.rec.attempt(int64(c.events))
			if err != nil {
				runErr = err
				break
			}
			if c.apply != nil {
				b.rec.fail(c.apply)
			}
			if c.checks != nil {
				b.rec.fail(c.checks)
			}
			cycles = append(cycles, c)
		}
		select {
		case <-ready:
		default:
			close(ready)
		}
		close(stop)
		wg.Wait()
		rt := readRuntime().since(rt0)
		return cycles, reads, heap.Stop(), rt, runErr
	}
	recordE2E := func(cycles []liveCycle, reads *loadOut, peak heapPeaks) {
		// The throughput of live is ingest_events_per_s, the median over
		// cycles of a cycle's events over its ingest time. Whole cycles,
		// not parts of them: within a cycle the rate falls steadily as the
		// graph grows, and a median over parts follows that slope.
		rates := make([]float64, len(cycles))
		sums := make([]uint64, len(cycles))
		for i, c := range cycles {
			rates[i] = float64(c.events) / c.ingest.Seconds()
			sums[i] = c.checksum
		}
		if err := sameChecksums(sums); err != nil {
			b.rec.fail(err)
		}
		b.rec.e2e("throughput", median(rates), "items/s", len(rates))
		b.rec.e2e("ingest_events_per_s", median(rates), "events/s", len(rates))
		reads.all.percentiles(b.rec, "live_read_p50_us", "live_read_p99_us")
		peak.record(b.rec)
		b.rec.e2e("replication_factor", cycles[0].rf, "ratio", 0)
		b.rec.e2e("edge_balance", cycles[0].balance, "ratio", 0)
		b.rec.detail("checksum", fmt.Sprintf("%016x", cycles[0].checksum))
	}
	if !b.trace {
		cycles, reads, peak, _, err := phase(b.measure, nil)
		if err != nil {
			return err
		}
		recordE2E(cycles, reads, peak)
		return nil
	}
	plain, plainReads, peak, rt, err := phase(b.measure/2, nil)
	if err != nil {
		return err
	}
	recordE2E(plain, plainReads, peak)
	recordRuntime(b.rec, rt, len(plain))
	t := newTracing()
	cycles, _, _, _, err := phase(b.measure/2, t.tracer)
	if err != nil {
		return err
	}
	var batches []float64
	var sums liveCycle
	for _, c := range cycles {
		batches = append(batches, c.batches...)
		sums.compact += c.compact
		sums.rebalance += c.rebalance
		sums.moved += c.moved
		sums.migrated += c.migrated
		sums.compactions += c.compactions
		sums.diskPerEdge += c.diskPerEdge
	}
	n := float64(len(cycles))
	b.rec.layer("live.apply_s_p50", quantile(batches, 0.5), len(batches))
	b.rec.layer("live.apply_s_p99", quantile(batches, 0.99), len(batches))
	b.rec.layer("live.compactions", float64(sums.compactions)/n, len(cycles))
	b.rec.layer("live.compact_s", sums.compact.Seconds()/n, len(cycles))
	b.rec.layer("live.rebalance_s", sums.rebalance.Seconds()/n, len(cycles))
	b.rec.layer("live.moved_edges", float64(sums.moved)/n, len(cycles))
	b.rec.layer("live.migrated_bytes", float64(sums.migrated)/n, len(cycles))
	b.rec.layer("live.disk_bytes_per_edge", sums.diskPerEdge/n, len(cycles))
	// Tracing overhead on the writer: seconds per event, traced over plain.
	b.rec.layer("trace.overhead", median(ingestSeconds(cycles))/median(ingestSeconds(plain)), len(cycles))
	path, err := b.writeTrace(t.tracer)
	if err != nil {
		return err
	}
	b.rec.detail("trace_file", path)
	return nil
}

func ingestSeconds(cs []liveCycle) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.ingest.Seconds() / float64(c.events)
	}
	return out
}

// readUntil runs the serve mix against target at liveReadRate from one
// reader until stop is closed. The reader is its own open loop: a query
// that falls behind its due time starts at once and counts the delay.
func readUntil(ctx context.Context, rec *recorder, stop <-chan struct{}, qs []query, verts []graph.Vertex, target func() queryable, tracer *obs.Tracer) *loadOut {
	out := &loadOut{}
	precisePacing()
	interval := time.Second / liveReadRate
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		select {
		case <-stop:
			return out
		default:
		}
		q := qs[i%len(qs)]
		tgt := target()
		begin := time.Now()
		v, ok := pickVertex(verts, tgt.NumVertices(), q.u)
		rec.attempt(1)
		if !ok {
			rec.fail(fmt.Errorf("live read %d: epoch holds no vertex", i))
			continue
		}
		if _, err := runQuery(ctx, tgt, q, v); err != nil {
			rec.fail(fmt.Errorf("live %s(%d): %w", kindNames[q.kind], v, err))
			continue
		}
		end := time.Now()
		out.all.add(end.Sub(due))
		tracer.Record(spanFrom(kindNames[q.kind], "live.read", begin, end.Sub(begin)))
	}
}

// ingestCycle runs one writer cycle in a fresh directory: ingest every
// event in batches, apply the departure wave, rebalance, compact, and
// check the result. The reader is pointed at the new live graph once its
// first batch is in. The returned error is a set-up failure; failed
// operations and checks come back in the cycle.
func ingestCycle(ctx context.Context, dir string, events []dynpart.Event, cur *atomic.Pointer[live.Live], ready chan struct{}, tracer *obs.Tracer) (liveCycle, error) {
	c := liveCycle{events: len(events)}
	lv, err := live.Open(dir, live.Config{NumParts: liveParts})
	if err != nil {
		return c, err
	}
	defer os.RemoveAll(dir)
	defer lv.Close()
	start := time.Now()
	for off := 0; off < len(events); off += liveBatch {
		batch := events[off:min(off+liveBatch, len(events))]
		t0 := time.Now()
		_, err := lv.Apply(batch)
		d := time.Since(t0)
		tracer.Record(spanFrom("Apply", "live", t0, d))
		if err != nil {
			c.apply = fmt.Errorf("Apply batch at event %d: %w", off, err)
			return c, nil
		}
		c.batches = append(c.batches, d.Seconds())
		if off == 0 {
			cur.Store(lv)
			select {
			case <-ready:
			default:
				close(ready)
			}
		}
	}
	c.ingest = time.Since(start)

	before := lv.Stats()
	if _, err := lv.Apply(departureWave(lv.Epoch())); err != nil {
		c.apply = fmt.Errorf("departure wave: %w", err)
		return c, nil
	}
	t0 := time.Now()
	c.moved, err = lv.Rebalance(liveRebalanceBudget)
	c.rebalance = time.Since(t0)
	tracer.Record(spanFrom("Rebalance", "live", t0, c.rebalance))
	if err != nil {
		c.apply = fmt.Errorf("Rebalance: %w", err)
		return c, nil
	}
	t0 = time.Now()
	err = lv.Compact()
	c.compact = time.Since(t0)
	tracer.Record(spanFrom("Compact", "live", t0, c.compact))
	if err != nil {
		c.apply = fmt.Errorf("Compact: %w", err)
		return c, nil
	}
	after := lv.Stats()
	c.migrated = after.MigratedBytes - before.MigratedBytes
	c.compactions = after.Compactions
	c.checksum, c.checks = checkLive(lv)
	c.rf, c.balance = epochQuality(lv.Epoch())
	c.diskPerEdge = float64(dirBytes(dir)) / float64(max(after.NumEdges, 1))
	return c, nil
}

// checkLive checks a live graph after a cycle: its placement state's
// invariants must hold. It also returns the graph's checksum, which must
// repeat for the same events.
func checkLive(lv *live.Live) (uint64, error) {
	return lv.Checksum(), lv.State().CheckInvariants()
}

// sameChecksums fails unless every cycle of a run, having applied the same
// events, ends with the same live graph.
func sameChecksums(sums []uint64) error {
	for i, s := range sums {
		if s != sums[0] {
			return fmt.Errorf("cycle %d: live checksum %016x, first cycle %016x", i, s, sums[0])
		}
	}
	return nil
}

// departureWave removes the low half of each of the first P/2 partitions'
// sorted live edges: a correlated departure that pushes the other
// partitions over the balance cap.
func departureWave(ep interface {
	NumShards() int
	ShardEdgesPacked(s int) []uint64
}) []dynpart.Event {
	var wave []dynpart.Event
	for s := 0; s < ep.NumShards()/2; s++ {
		packed := ep.ShardEdgesPacked(s)
		for _, k := range packed[:int(liveWave*float64(len(packed)))] {
			wave = append(wave, dynpart.Event{Op: dynpart.Remove, Edge: graph.UnpackEdge(k)})
		}
	}
	return wave
}

// epochQuality tallies the partitioning a live epoch serves.
func epochQuality(ep interface {
	NumVertices() uint32
	NumShards() int
	ShardEdgesPacked(s int) []uint64
}) (rf, balance float64) {
	tally, err := newPartTally(ep.NumVertices(), ep.NumShards())
	if err != nil {
		return 0, 0
	}
	for s := 0; s < ep.NumShards(); s++ {
		for _, k := range ep.ShardEdgesPacked(s) {
			if tally.add(k, int32(s)) != nil {
				return 0, 0
			}
		}
	}
	return tally.result()
}

// dirBytes is the size of the files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
