// Command perfbench is the repository's benchmark. One run sets up one
// workload from a seed, measures it for a fixed time, checks that every
// output is correct, and prints as its last line one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the workload's end-to-end metrics, measured
// with no instrumentation in the way. With --trace 1 the run measures half
// its time untraced and half traced, and the metrics are the per-layer
// numbers plus the tracing overhead between the two halves. The lines before
// the last one record the environment, every metric with its sample count,
// and notes on known defects the run shows (NOTES.md lists them all).
//
// Every layer is measured from outside, through its public API: a timing
// wrapper of cluster.Comm is handed to dne.PartitionShards, TCP ranks dial
// through a counting net.Conn, the graph.Source given to
// methods.PartitionSourcePiped is wrapped, and store and live methods are
// called directly. run.py builds and starts this program:
//
//	python3 perfbench/run.py --workload dne --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/distributedne/dne/internal/obs"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(ctx context.Context, b *bench) error
}

var workloads = []workload{
	{"dne", func(ctx context.Context, b *bench) error { return runPartitionWorkload(ctx, b, dneInProcess) }},
	{"dne-tcp", func(ctx context.Context, b *bench) error { return runPartitionWorkload(ctx, b, dneTCP) }},
	{"stream", func(ctx context.Context, b *bench) error { return runPartitionWorkload(ctx, b, streamHDRF) }},
	{"serve", runServe},
	{"live", runLive},
}

// runDeadline bounds a whole run; the contract allows 180 s.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 10, "measured time of the run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and the Chrome trace")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s}, --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	// The piped shuffle spills to os.TempDir; keep its files in the run's
	// scratch directory too.
	os.Setenv("TMPDIR", work)

	b := &bench{
		workload: w.name,
		seed:     *seed,
		measure:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		out:      *out,
		rec:      &recorder{},
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	b.env = recordEnv(b)
	total, steal := cpuTimes()
	if err := w.run(ctx, b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	b.env["cpu_steal_share"] = stealShare(total, steal)
	if err := b.rec.print(os.Stdout, b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ",")
}

// bench is one run's configuration and its results.
type bench struct {
	workload string
	seed     int64
	measure  time.Duration
	trace    bool
	out      string
	rec      *recorder
	env      map[string]any
}

// setup runs fn reps times, records the median as setup_s, and keeps
// whatever the last repetition built. Setting up more than once is what
// makes setup_s steady enough to gate on.
func (b *bench) setup(reps int, fn func() error) error {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	b.rec.e2e("setup_s", median(times), "s", len(times))
	return nil
}

// writeTrace dumps the traced half's spans as a Chrome trace into the
// output directory and returns its path.
func (b *bench) writeTrace(t *obs.Tracer) (string, error) {
	path := filepath.Join(b.out, "trace-"+b.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// sortedKeys returns m's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
