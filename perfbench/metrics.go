package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// endToEnd lists every end-to-end metric with its unit, in BENCHMARK.json
// order. Every workload's result line carries all of them, so each is
// defined on every workload: throughput counts the unit of work the
// workload does (edges partitioned, queries answered in the closed loop,
// events ingested), and the quality pair is that of the partitioning the
// workload produces or serves.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput", "items/s"},
	{"peak_live_heap_bytes", "bytes"},
	{"replication_factor", "ratio"},
	{"edge_balance", "ratio"},
}

// reported are end-to-end figures a run prints before its result line but
// BENCHMARK.json does not gate on. The three throughput names repeat
// throughput under the name and unit of the workload's own work, and
// peak_heap_bytes is explained at heapPeaks. The latency percentiles
// spread more from run to run on a shared 2-core machine than any bound a
// regression gate can use (see NOTES.md); wire_bytes exists on dne-tcp
// only and is exact, so the self-test pins it instead.
var reported = map[string]bool{
	"degree_p50_us": true, "degree_p99_us": true, "neighbors_p50_us": true, "neighbors_p99_us": true,
	"khop_p50_us": true, "khop_p99_us": true, "live_read_p50_us": true, "live_read_p99_us": true,
	"wire_bytes": true, "peak_heap_bytes": true,
	"partition_edges_per_s": true, "serve_capacity_qps": true, "ingest_events_per_s": true,
}

// gated reports whether name is a BENCHMARK.json end-to-end metric.
func gated(name string) bool {
	for _, m := range endToEnd {
		if m.name == name {
			return true
		}
	}
	return false
}

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json
// order. A traced run prints all of them; a layer its workload bypasses
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"dne.busy_s", "s"},
	{"dne.busy_s.select", "s"},
	{"dne.busy_s.sync", "s"},
	{"dne.busy_s.boundary", "s"},
	{"dne.busy_s.edges", "s"},
	{"dne.supersteps", "count"},
	{"dne.allocs", "count"},
	{"dne.alloc_bytes", "bytes"},
	{"dne.analytic_mem_bytes", "bytes"},
	{"dne.heap_over_analytic", "ratio"},
	{"cluster.wait_s", "s"},
	{"cluster.wait_s.shuffle", "s"},
	{"cluster.wait_s.select", "s"},
	{"cluster.wait_s.sync", "s"},
	{"cluster.wait_s.boundary", "s"},
	{"cluster.wait_s.edges", "s"},
	{"cluster.wait_s.result", "s"},
	{"cluster.wait_s.collective", "s"},
	{"cluster.wait_max_over_median", "ratio"},
	{"cluster.send_s", "s"},
	{"cluster.messages", "count"},
	{"cluster.messages.shuffle", "count"},
	{"cluster.messages.select", "count"},
	{"cluster.messages.sync", "count"},
	{"cluster.messages.boundary", "count"},
	{"cluster.messages.edges", "count"},
	{"cluster.messages.result", "count"},
	{"cluster.messages.collective", "count"},
	{"cluster.bytes_accounted", "bytes"},
	{"cluster.bytes_accounted.shuffle", "bytes"},
	{"cluster.bytes_accounted.select", "bytes"},
	{"cluster.bytes_accounted.sync", "bytes"},
	{"cluster.bytes_accounted.boundary", "bytes"},
	{"cluster.bytes_accounted.edges", "bytes"},
	{"cluster.bytes_accounted.result", "bytes"},
	{"cluster.bytes_accounted.collective", "bytes"},
	{"cluster.wire_bytes_sent", "bytes"},
	{"cluster.wire_bytes_recv", "bytes"},
	{"cluster.wire_over_accounted", "ratio"},
	{"cluster.dial_s", "s"},
	{"graph.decode_s", "s"},
	{"graph.passes", "count"},
	{"graph.chunks", "count"},
	{"graph.bytes_read", "bytes"},
	{"graph.scatter_s", "s"},
	{"streampart.core_s", "s"},
	{"partition.measure_s", "s"},
	{"store.shard_tasks_per_query", "count"},
	{"store.cross_shard_hops_per_query", "count"},
	{"store.touch_imbalance", "ratio"},
	{"store.khop_visited_per_query", "count"},
	{"store.khop_alloc_bytes_per_query", "bytes"},
	{"serve.generator_lag_p99_us", "us"},
	{"serve.queue_wait_p99_us", "us"},
	{"live.apply_s_p50", "s"},
	{"live.apply_s_p99", "s"},
	{"live.compactions", "count"},
	{"live.compact_s", "s"},
	{"live.rebalance_s", "s"},
	{"live.moved_edges", "count"},
	{"live.migrated_bytes", "bytes"},
	{"live.disk_bytes_per_edge", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.alloc_bytes", "bytes"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// entry is one printed metric. Samples is the number of measurements a
// median or percentile was taken over (0 for counts and ratios of counts).
type entry struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// recorder collects one run's operations, failures, metrics and notes.
// Workers report operations concurrently; metrics are recorded from the
// run's own goroutine.
type recorder struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
	endToEnd  []entry
	perLayer  []entry
	details   map[string]any
	notes     []string
}

// maxFailureMessages bounds how many failure messages a run prints.
const maxFailureMessages = 5

func (r *recorder) attempt(n int64) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// fail counts one failed operation: an error from the program or an output
// that did not pass its correctness check.
func (r *recorder) fail(err error) {
	r.mu.Lock()
	r.failed++
	if len(r.failures) < maxFailureMessages {
		r.failures = append(r.failures, err.Error())
	}
	r.mu.Unlock()
}

func (r *recorder) e2e(name string, v float64, unit string, samples int) {
	if !gated(name) && !reported[name] {
		panic("perfbench: undeclared end-to-end metric " + name)
	}
	r.endToEnd = append(r.endToEnd, entry{name, v, unit, samples})
}

func (r *recorder) layer(name string, v float64, samples int) {
	for _, m := range perLayer {
		if m.name == name {
			r.perLayer = append(r.perLayer, entry{name, v, m.unit, samples})
			return
		}
	}
	panic("perfbench: undeclared per-layer metric " + name)
}

// detail records a value printed before the result line but not gated on:
// checksums, exact counters, the inputs' sizes.
func (r *recorder) detail(k string, v any) {
	if r.details == nil {
		r.details = map[string]any{}
	}
	r.details[k] = v
}

func (r *recorder) note(s string) { r.notes = append(r.notes, s) }

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the environment, every metric with its sample count, the
// details and notes, and finally the result line.
func (r *recorder) print(w io.Writer, b *bench) error {
	env, err := json.Marshal(b.env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "env %s\n", env)
	var entries []entry
	for _, e := range r.endToEnd {
		label := "metric"
		switch {
		case b.trace:
			label = "untraced"
		case gated(e.Name):
			entries = append(entries, e)
		default:
			label = "reported"
		}
		fmt.Fprintf(w, "%-8s %-38s %16.6g %-8s samples=%d\n", label, e.Name, e.Value, e.Unit, e.Samples)
	}
	if !b.trace {
		if err := complete(entries); err != nil {
			return err
		}
	} else {
		entries = r.fillLayers()
		for _, e := range entries {
			fmt.Fprintf(w, "%-8s %-38s %16.6g %-8s samples=%d\n", "metric", e.Name, e.Value, e.Unit, e.Samples)
		}
	}
	for _, k := range sortedKeys(r.details) {
		fmt.Fprintf(w, "detail %s %v\n", k, r.details[k])
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "failure %s\n", f)
	}
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]resultValue{},
	}
	for _, e := range entries {
		res.Metrics[e.Name] = resultValue{e.Value, e.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// complete checks that entries hold every end-to-end metric once, each
// non-zero: a result line missing one, or reading 0 where the workload
// did no work, is not a measurement.
func complete(entries []entry) error {
	for _, m := range endToEnd {
		n := 0
		for _, e := range entries {
			if e.Name == m.name {
				n++
				if e.Value == 0 || math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
					return fmt.Errorf("end-to-end metric %s reads %v", m.name, e.Value)
				}
			}
		}
		if n != 1 {
			return fmt.Errorf("end-to-end metric %s recorded %d times, want once", m.name, n)
		}
	}
	return nil
}

// fillLayers returns the recorded per-layer metrics in declaration order,
// with every metric the workload did not record reading 0.
func (r *recorder) fillLayers() []entry {
	out := make([]entry, 0, len(perLayer))
	for _, m := range perLayer {
		e := entry{Name: m.name, Unit: m.unit}
		for _, got := range r.perLayer {
			if got.Name == m.name {
				e = got
			}
		}
		out = append(out, e)
	}
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// heapObjectsMetric is the runtime/metrics name of live plus unswept heap
// object bytes: what the process's heap holds at the instant of sampling.
// heapLiveMetric is the heap the last GC cycle marked live: what the
// program's data needed, without the garbage waiting to be swept.
const (
	heapObjectsMetric = "/memory/classes/heap/objects:bytes"
	heapLiveMetric    = "/gc/heap/live:bytes"
)

// heapSampleEvery is the heap sampling period of a measured phase.
const heapSampleEvery = 2 * time.Millisecond

// heapPeaks are the highest heap samples of a phase.
type heapPeaks struct {
	// objects is the highest heap-object bytes sampled. How much garbage
	// it holds depends on where GC cycles fall against the allocations:
	// on stream it takes one of two levels (70–87 MB or 102–110 MB) by
	// seed, so it is reported and not gated.
	objects uint64
	// live is the highest live heap a GC cycle marked: the gated
	// peak_live_heap_bytes, and the figure comparable with the analytic
	// memory of the partitioners.
	live uint64
}

// record prints the peaks as end-to-end metrics.
func (p heapPeaks) record(rec *recorder) {
	rec.e2e("peak_live_heap_bytes", float64(p.live), "bytes", 0)
	rec.e2e("peak_heap_bytes", float64(p.objects), "bytes", 0)
}

// heapPeak samples the heap from a goroutine until Stop is called.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak heapPeaks // written by the sampling goroutine only
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	s := []metrics.Sample{{Name: heapObjectsMetric}, {Name: heapLiveMetric}}
	metrics.Read(s)
	h.peak.objects = max(h.peak.objects, s[0].Value.Uint64())
	h.peak.live = max(h.peak.live, s[1].Value.Uint64())
}

// Stop ends sampling and returns the highest samples seen.
func (h *heapPeak) Stop() heapPeaks {
	close(h.stop)
	<-h.done
	h.sample()
	return h.peak
}

// rtCounters are the Go runtime's cumulative allocation and GC counters.
type rtCounters struct {
	gcCycles   float64
	gcPauseS   float64
	allocBytes float64
	allocs     float64
}

func readRuntime() rtCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtCounters{
		gcCycles:   float64(ms.NumGC),
		gcPauseS:   float64(ms.PauseTotalNs) / 1e9,
		allocBytes: float64(ms.TotalAlloc),
		allocs:     float64(ms.Mallocs),
	}
}

func (c rtCounters) since(base rtCounters) rtCounters {
	return rtCounters{
		gcCycles:   c.gcCycles - base.gcCycles,
		gcPauseS:   c.gcPauseS - base.gcPauseS,
		allocBytes: c.allocBytes - base.allocBytes,
		allocs:     c.allocs - base.allocs,
	}
}

// recordRuntime records the runtime layer per operation of the phase.
func recordRuntime(rec *recorder, rt rtCounters, ops int) {
	n := float64(max(ops, 1))
	rec.layer("runtime.gc_cycles", rt.gcCycles/n, ops)
	rec.layer("runtime.gc_pause_s", rt.gcPauseS/n, ops)
	rec.layer("runtime.alloc_bytes", rt.allocBytes/n, ops)
}

// latencies collects per-operation latencies in microseconds.
type latencies struct {
	mu sync.Mutex
	us []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.us = append(l.us, float64(d)/1e3)
	l.mu.Unlock()
}

// minP99Samples is the fewest samples a p99 is taken over: at least ten
// measurements lie beyond it.
const minP99Samples = 1000

// maxWindows is the most windows a run's latencies are split into.
const maxWindows = 5

// percentiles records the p50 and p99 of l's samples. Each is the median,
// over consecutive windows of at least minP99Samples samples (at most
// maxWindows of them), of that window's percentile, so a burst of
// interference from outside the process moves one window rather than the
// result. A p99 over fewer than minP99Samples samples in all gets a note:
// it is a handful of outliers, not a percentile.
func (l *latencies) percentiles(rec *recorder, p50, p99 string) {
	n := len(l.us)
	windows := max(1, min(maxWindows, n/minP99Samples))
	var w50, w99 []float64
	for w := 0; w < windows; w++ {
		win := l.us[w*n/windows : (w+1)*n/windows]
		w50 = append(w50, quantile(win, 0.50))
		w99 = append(w99, quantile(win, 0.99))
	}
	rec.e2e(p50, median(w50), "us", n)
	rec.e2e(p99, median(w99), "us", n)
	if n < minP99Samples {
		rec.note(fmt.Sprintf("%s is taken over %d samples, fewer than %d: run longer", p99, n, minP99Samples))
	}
}
