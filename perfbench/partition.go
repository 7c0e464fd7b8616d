package main

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"github.com/distributedne/dne/internal/obs"
)

// partitionCase is what the three partition workloads vary: their inputs,
// one partitioning call, and the per-layer metrics of a traced phase. The
// load is one caller issuing one call at a time, in a closed loop.
type partitionCase interface {
	// params describes the inputs for the environment record.
	params() map[string]any
	// setUp generates the inputs from seed. It runs several times; the last
	// run's inputs are measured.
	setUp(ctx context.Context, seed int64) error
	numEdges() int64
	// call runs one partitioning, times it, and checks its output. A
	// non-nil tracing makes it a traced call that also feeds per-layer
	// sums and spans.
	call(ctx context.Context, t *tracing) (callOut, error)
	// quality computes the replication factor and edge balance of out.
	quality(out callOut) (rf, balance float64, err error)
	// layers records the per-layer metrics: timings from the traced phase
	// t, allocation counts from the untraced phase plain.
	layers(rec *recorder, t *tracing, plain, traced phaseOut)
}

// callOut is one call's result as the runner needs it.
type callOut struct {
	// input numbers the input the call partitioned, when a workload cycles
	// through several; calls on one input must agree on the checksum.
	input     int
	wall      time.Duration
	checksum  uint64
	wireBytes int64 // bytes written on rank sockets; 0 without a wire
	// result is the workload's own output, kept for quality.
	result any
}

// tracing carries a traced phase's spans and per-layer sums. Only the
// run's goroutine touches sums, after each call has returned.
type tracing struct {
	tracer *obs.Tracer
	sums   map[string]float64
}

// traceCapacity bounds the spans a traced phase keeps (the ring drops the
// oldest beyond it).
const traceCapacity = 1 << 18

func newTracing() *tracing {
	return &tracing{tracer: obs.NewTracer(traceCapacity), sums: map[string]float64{}}
}

// minCalls is the fewest calls a phase makes, whatever its duration, so a
// median exists.
const minCalls = 3

// phaseOut summarizes one measured phase of calls.
type phaseOut struct {
	walls     []float64
	peakHeap  heapPeaks
	runtime   rtCounters
	wireBytes []float64
	rf, bal   []float64 // one per input
}

func (p phaseOut) calls() int { return len(p.walls) }

// runPartitionWorkload sets a partition workload up, then measures it for
// the run's time (untraced) or half of it untraced and half traced.
func runPartitionWorkload(ctx context.Context, b *bench, newCase func(seed int64) partitionCase) error {
	c := newCase(b.seed)
	for k, v := range c.params() {
		b.env[k] = v
	}
	if err := b.setup(setupReps, func() error { return c.setUp(ctx, b.seed) }); err != nil {
		return err
	}
	if !b.trace {
		ph, err := partitionPhase(ctx, b, c, b.measure, nil)
		if err != nil {
			return err
		}
		recordPartitionE2E(b.rec, c, ph)
		return nil
	}
	plain, err := partitionPhase(ctx, b, c, b.measure/2, nil)
	if err != nil {
		return err
	}
	recordPartitionE2E(b.rec, c, plain)
	t := newTracing()
	traced, err := partitionPhase(ctx, b, c, b.measure/2, t)
	if err != nil {
		return err
	}
	c.layers(b.rec, t, plain, traced)
	recordRuntime(b.rec, plain.runtime, plain.calls())
	b.rec.layer("trace.overhead", median(traced.walls)/median(plain.walls), traced.calls())
	if analytic := t.sums["dne.analytic_mem_bytes"]; analytic > 0 {
		b.rec.layer("dne.heap_over_analytic", float64(plain.peakHeap.live)/(analytic/float64(traced.calls())), 0)
	}
	path, err := b.writeTrace(t.tracer)
	if err != nil {
		return err
	}
	b.rec.detail("trace_file", path)
	b.rec.detail("trace_spans_dropped", t.tracer.Dropped())
	return nil
}

// setupReps is how many times a workload sets up; setup_s is the median.
const setupReps = 3

// partitionPhase calls c in a closed loop for at least d, checking every
// output: each call must succeed, pass the workload's own checks and
// return the same checksum as the phase's first call on the same input.
// Quality is measured once per input.
func partitionPhase(ctx context.Context, b *bench, c partitionCase, d time.Duration, t *tracing) (phaseOut, error) {
	var ph phaseOut
	runtime.GC()
	heap := startHeapPeak()
	rt0 := readRuntime()
	start := time.Now()
	first := map[int]uint64{} // checksum of the first call on each input
	for i := 0; i < minCalls || time.Since(start) < d; i++ {
		// Each call starts from a collected heap, so neither its time nor
		// its peak depends on the garbage the previous call left.
		runtime.GC()
		out, err := c.call(ctx, t)
		b.rec.attempt(1)
		if err != nil {
			if ctx.Err() != nil {
				ph.peakHeap = heap.Stop()
				return ph, err
			}
			b.rec.fail(err)
			continue
		}
		ph.walls = append(ph.walls, out.wall.Seconds())
		if out.wireBytes > 0 {
			ph.wireBytes = append(ph.wireBytes, float64(out.wireBytes))
		}
		sum, seen := first[out.input]
		if !seen {
			first[out.input] = out.checksum
			rf, bal, err := c.quality(out)
			if err != nil {
				b.rec.fail(err)
				continue
			}
			ph.rf, ph.bal = append(ph.rf, rf), append(ph.bal, bal)
			continue
		}
		if out.checksum != sum {
			b.rec.fail(fmt.Errorf("call %d: checksum %016x, first call on input %d %016x", i, out.checksum, out.input, sum))
		}
	}
	ph.runtime = readRuntime().since(rt0)
	ph.peakHeap = heap.Stop()
	if len(first) == 0 {
		return ph, errors.New("every call failed")
	}
	sums := make([]string, len(first))
	for k, sum := range first {
		if k < len(sums) {
			sums[k] = fmt.Sprintf("%016x", sum)
		}
	}
	b.rec.detail("checksums", sums)
	return ph, nil
}

func recordPartitionE2E(rec *recorder, c partitionCase, ph phaseOut) {
	// The throughput of a partition workload is partition_edges_per_s:
	// edges over the median wall time of a call.
	eps := float64(c.numEdges()) / median(ph.walls)
	rec.e2e("throughput", eps, "items/s", ph.calls())
	rec.e2e("partition_edges_per_s", eps, "edges/s", ph.calls())
	ph.peakHeap.record(rec)
	rec.e2e("replication_factor", median(ph.rf), "ratio", len(ph.rf))
	rec.e2e("edge_balance", median(ph.bal), "ratio", len(ph.bal))
	if len(ph.wireBytes) > 0 {
		rec.e2e("wire_bytes", median(ph.wireBytes), "bytes", len(ph.wireBytes))
	}
	if dc, ok := c.(*dneCase); ok && median(ph.bal) > dc.cfg.Alpha {
		rec.note(fmt.Sprintf("known defect: DNE edge_balance %.4f exceeds alpha %.2f (multi-expansion overshoot; NOTES.md)",
			median(ph.bal), dc.cfg.Alpha))
	}
	rec.detail("call_wall_s", ph.walls)
}

// partTally accumulates an edge partitioning for its quality metrics.
type partTally struct {
	parts  int
	mask   []uint64 // per vertex, the set of parts holding one of its edges
	counts []int64  // edges per part
}

// maxTallyParts is the most parts a tally's per-vertex bitmask holds.
const maxTallyParts = 64

func newPartTally(numVertices uint32, parts int) (*partTally, error) {
	if parts < 1 || parts > maxTallyParts {
		return nil, fmt.Errorf("quality: %d parts, want 1..%d", parts, maxTallyParts)
	}
	return &partTally{parts: parts, mask: make([]uint64, numVertices), counts: make([]int64, parts)}, nil
}

// add records edge k (a packed canonical edge) in part owner.
func (t *partTally) add(k uint64, owner int32) error {
	u, v := uint32(k>>32), uint32(k)
	if owner < 0 || int(owner) >= t.parts {
		return fmt.Errorf("edge (%d,%d): owner %d outside [0,%d)", u, v, owner, t.parts)
	}
	if int64(u) >= int64(len(t.mask)) || int64(v) >= int64(len(t.mask)) {
		return fmt.Errorf("edge (%d,%d): vertex outside [0,%d)", u, v, len(t.mask))
	}
	t.mask[u] |= 1 << owner
	t.mask[v] |= 1 << owner
	t.counts[owner]++
	return nil
}

// result returns the replication factor — replicas over vertices with at
// least one edge, so isolated ids do not dilute it — and the edge balance,
// the largest part over the mean part.
func (t *partTally) result() (rf, balance float64) {
	var replicas, covered, edges, largest int64
	for _, m := range t.mask {
		if m != 0 {
			covered++
			replicas += int64(bits.OnesCount64(m))
		}
	}
	for _, c := range t.counts {
		edges += c
		largest = max(largest, c)
	}
	if covered == 0 || edges == 0 {
		return 0, 0
	}
	return float64(replicas) / float64(covered), float64(largest) * float64(t.parts) / float64(edges)
}
