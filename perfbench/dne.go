package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/obs"
)

// dneCase is Distributed NE over shards: in-process (the dne workload) or
// over loopback TCP through the router (dne-tcp). One run partitions one
// graph, but each call draws the algorithm's seed from a cycle of a few
// seeds: how many supersteps DNE needs varies by a factor of
// three from seed to seed, so a run that measured a single seed would
// mostly measure which seed it drew.
type dneCase struct {
	tcp                      bool
	family                   string // "rmat" or "er"
	scale, edgeFactor, parts int
	cfg                      dne.Config
	seeds                    []int64 // the algorithm's seed for each input

	numVertices uint32
	stripes     [][]uint64 // rank r's shard: a stripe of the canonical edge list
	edges       int64
	reference   []uint64 // dne-tcp: checksum of an in-process run per input
	calls       int
}

// dneInProcess is the paper's algorithm with a free transport: RMAT scale
// 17, edge factor 16, P=8, α=1.1, λ=0.1.
func dneInProcess(seed int64) partitionCase {
	return &dneCase{family: "rmat", scale: 17, edgeFactor: 16, parts: 8, cfg: dne.DefaultConfig(), seeds: dneSeeds(seed, 6)}
}

// dneTCP is the same protocol over loopback TCP with P=4 ranks, near the
// core count, on an Erdős–Rényi graph of 2^16 vertices and 2^20 edge
// samples. On RMAT the number of supersteps, and with it the wire time,
// varies threefold from seed to seed (181 to 744 at scales 15 to 17),
// which no run of a few calls can average out; on ER it stays within 48
// to 59, so what the workload measures is the transport, not the seed.
func dneTCP(seed int64) partitionCase {
	return &dneCase{tcp: true, family: "er", scale: 16, edgeFactor: 16, parts: 4, cfg: dne.DefaultConfig(), seeds: dneSeeds(seed, 4)}
}

func dneSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return seeds
}

// config returns the configuration of input k.
func (c *dneCase) config(k int) dne.Config {
	cfg := c.cfg
	cfg.Seed = c.seeds[k]
	return cfg
}

func (c *dneCase) params() map[string]any {
	return map[string]any{
		"graph": c.family, "scale": c.scale, "edge_factor": c.edgeFactor, "parts": c.parts,
		"alpha": c.cfg.Alpha, "lambda": c.cfg.Lambda, "algorithm_seeds": len(c.seeds), "transport": map[bool]string{false: "in-process", true: "tcp-loopback"}[c.tcp],
	}
}

func (c *dneCase) setUp(ctx context.Context, seed int64) error {
	g := gen.RMAT(c.scale, c.edgeFactor, seed)
	if c.family == "er" {
		g = gen.ER(1<<c.scale, int64(c.edgeFactor)<<c.scale, seed)
	}
	c.numVertices, c.edges = g.NumVertices(), g.NumEdges()
	c.stripes = c.stripes[:0]
	for _, sh := range graph.ShardsOf(g, c.parts) {
		c.stripes = append(c.stripes, sh.Packed)
	}
	c.calls = 0
	if !c.tcp {
		return nil
	}
	c.reference = c.reference[:0]
	for k := range c.seeds {
		res, _, err := partitionInProcess(ctx, c.shards(), c.config(k), nil)
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		c.reference = append(c.reference, res.Checksum())
	}
	return nil
}

func (c *dneCase) numEdges() int64 { return c.edges }

// shards returns fresh shards for one call: PartitionShards consumes them.
func (c *dneCase) shards() []*graph.Shard {
	out := make([]*graph.Shard, len(c.stripes))
	for r, s := range c.stripes {
		out[r] = &graph.Shard{NumVertices: c.numVertices, Packed: slices.Clone(s)}
	}
	return out
}

func (c *dneCase) call(ctx context.Context, t *tracing) (callOut, error) {
	k := c.calls % len(c.seeds)
	c.calls++
	cfg := c.config(k)
	shards := c.shards()
	var probe *rankProbe
	if t != nil {
		probe = &rankProbe{times: make([]rankTimes, c.parts), dial: make([]time.Duration, c.parts), tracer: t.tracer}
	}
	var wire wireCount
	start := time.Now()
	var res *dne.ShardResult
	var stats []*dne.MachineStats
	var err error
	if c.tcp {
		res, stats, err = partitionTCP(ctx, shards, cfg, probe, &wire)
	} else {
		res, stats, err = partitionInProcess(ctx, shards, cfg, probe)
	}
	wall := time.Since(start)
	if err != nil {
		return callOut{}, err
	}
	if t != nil {
		t.tracer.Record(spanFrom("partition call", "bench", start, wall))
		c.accumulate(t, probe, stats, &wire, wall)
	}
	if err := checkShardResult(res, c.stripes, c.parts); err != nil {
		return callOut{}, err
	}
	if c.tcp && res.Checksum() != c.reference[k] {
		return callOut{}, fmt.Errorf("input %d: tcp checksum %016x, in-process run over the same shards %016x", k, res.Checksum(), c.reference[k])
	}
	return callOut{input: k, wall: wall, checksum: res.Checksum(), wireBytes: wire.sent.Load(), result: res}, nil
}

func (c *dneCase) quality(out callOut) (float64, float64, error) {
	res := out.result.(*dne.ShardResult)
	tally, err := newPartTally(c.numVertices, c.parts)
	if err != nil {
		return 0, 0, err
	}
	for i, k := range res.Keys {
		if err := tally.add(k, res.Owner[i]); err != nil {
			return 0, 0, err
		}
	}
	rf, bal := tally.result()
	return rf, bal, nil
}

// checkShardResult verifies that res gives every input edge exactly one
// owner in [0, parts): its keys are exactly the canonical edge list the
// stripes hold, in order, one owner each, and every owner is in range.
func checkShardResult(res *dne.ShardResult, stripes [][]uint64, parts int) error {
	if res == nil {
		return errors.New("rank 0 returned no result")
	}
	if res.NumParts != parts || len(res.Owner) != len(res.Keys) {
		return fmt.Errorf("result has %d parts, %d keys and %d owners; want %d parts and one owner per key",
			res.NumParts, len(res.Keys), len(res.Owner), parts)
	}
	i := 0
	for _, stripe := range stripes {
		for _, k := range stripe {
			if i >= len(res.Keys) {
				return fmt.Errorf("result lacks edges from input edge %d on", i)
			}
			if res.Keys[i] != k {
				return fmt.Errorf("result edge %d is %x, input edge %d is %x", i, res.Keys[i], i, k)
			}
			i++
		}
	}
	if i != len(res.Keys) {
		return fmt.Errorf("result has %d edges, input %d", len(res.Keys), i)
	}
	for j, o := range res.Owner {
		if o < 0 || int(o) >= parts {
			return fmt.Errorf("edge %d: owner %d outside [0,%d)", j, o, parts)
		}
	}
	return nil
}

// wireCount is the bytes all rank sockets wrote and read during one call.
type wireCount struct {
	sent, recv atomic.Int64
}

// rankProbe is what a traced call learns about each rank; nil when
// untraced.
type rankProbe struct {
	times  []rankTimes
	dial   []time.Duration
	tracer *obs.Tracer
}

// wrap returns a rank's communicator for the call: comm itself untraced,
// or its timing wrapper, and the function to call when the rank's
// PartitionShards returns.
func (p *rankProbe) wrap(comm cluster.Comm) (cluster.Comm, func()) {
	if p == nil {
		return comm, func() {}
	}
	w := newTimedComm(comm, &p.times[comm.Rank()], p.tracer)
	return w, w.finish
}

// partitionInProcess runs PartitionShards on an in-process cluster, one
// goroutine per rank.
func partitionInProcess(ctx context.Context, shards []*graph.Shard, cfg dne.Config, probe *rankProbe) (*dne.ShardResult, []*dne.MachineStats, error) {
	p := len(shards)
	var res *dne.ShardResult
	stats := make([]*dne.MachineStats, p)
	err := cluster.New(p).Run(func(comm cluster.Comm) error {
		r := comm.Rank()
		comm, done := probe.wrap(comm)
		out, st, err := dne.PartitionShards(ctx, comm, shards[r], cfg)
		done()
		stats[r] = st
		if r == 0 {
			res = out
		}
		return err
	})
	return res, stats, err
}

// partitionTCP runs PartitionShards with every rank dialing a fresh
// loopback router through a counting connection, as separate processes
// would. The call covers the router's start, the dials, the run, the
// goodbyes and the router's exit.
func partitionTCP(ctx context.Context, shards []*graph.Shard, cfg dne.Config, probe *rankProbe, wire *wireCount) (*dne.ShardResult, []*dne.MachineStats, error) {
	p := len(shards)
	addr, wait, err := cluster.StartRouter("127.0.0.1:0", p)
	if err != nil {
		return nil, nil, err
	}
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, sent: &wire.sent, recv: &wire.recv}, nil
	}
	// A rank that cannot join cancels the others, which would otherwise
	// wait for it forever.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var res *dne.ShardResult
	stats := make([]*dne.MachineStats, p)
	errs := make([]error, p)
	dialed := make([]bool, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			start := time.Now()
			node, err := cluster.DialTCPOpts(ctx, addr, r, p, cluster.DialOptions{Dial: dial})
			if probe != nil {
				probe.dial[r] = time.Since(start)
			}
			if err != nil {
				errs[r] = err
				cancel()
				return
			}
			dialed[r] = true
			comm, done := probe.wrap(node)
			out, st, err := dne.PartitionShards(ctx, comm, shards[r], cfg)
			done()
			if err != nil {
				node.Abort()
				errs[r] = err
				return
			}
			stats[r] = st
			if r == 0 {
				res = out
			}
			errs[r] = node.Close()
		}(r)
	}
	wg.Wait()
	for _, ok := range dialed {
		if !ok {
			// The router still waits for the missing hello; leave it.
			return nil, nil, errors.Join(errs...)
		}
	}
	if err := errors.Join(append(errs, wait())...); err != nil {
		return nil, nil, err
	}
	return res, stats, nil
}

// accumulate adds one traced call's rank splits, message counts and
// analytic figures to the phase sums. Times are per rank, so the sums are
// divided by the rank count; counts are totals over ranks.
func (c *dneCase) accumulate(t *tracing, probe *rankProbe, stats []*dne.MachineStats, wire *wireCount, wall time.Duration) {
	s, ranks := t.sums, float64(c.parts)
	waits := make([]float64, c.parts)
	for r, rt := range probe.times {
		for k := msgClass(0); k < numClasses; k++ {
			name := classNames[k]
			s["dne.busy_s"] += rt.busy[k].Seconds() / ranks
			s["dne.busy_s."+name] += rt.busy[k].Seconds() / ranks
			s["cluster.wait_s"] += rt.wait[k].Seconds() / ranks
			s["cluster.wait_s."+name] += rt.wait[k].Seconds() / ranks
			s["cluster.send_s"] += rt.send[k].Seconds() / ranks
			s["cluster.messages"] += float64(rt.msgs[k])
			s["cluster.messages."+name] += float64(rt.msgs[k])
			s["cluster.bytes_accounted"] += float64(rt.bytes[k])
			s["cluster.bytes_accounted."+name] += float64(rt.bytes[k])
			waits[r] += rt.wait[k].Seconds()
		}
		s["cluster.dial_s"] += probe.dial[r].Seconds() / ranks
	}
	s["cluster.wait_max_over_median"] += slices.Max(waits) / median(waits)
	for _, st := range stats {
		s["dne.analytic_mem_bytes"] += float64(st.MemBytes)
	}
	s["dne.supersteps"] += float64(stats[0].Iterations)
	s["cluster.wire_bytes_sent"] += float64(wire.sent.Load())
	s["cluster.wire_bytes_recv"] += float64(wire.recv.Load())
	// Rank 0 assembles the result and returns last: its split of the call,
	// plus the dials, is the critical path the layers must account for.
	r0 := probe.times[0]
	s["trace.covered_s"] += r0.total.Seconds() + probe.dial[0].Seconds()
	s["trace.wall_s"] += wall.Seconds()
}

func (c *dneCase) layers(rec *recorder, t *tracing, plain, ph phaseOut) {
	n := float64(ph.calls())
	s := t.sums
	for _, name := range []string{
		"dne.busy_s", "dne.busy_s.select", "dne.busy_s.sync", "dne.busy_s.boundary", "dne.busy_s.edges",
		"dne.supersteps", "dne.analytic_mem_bytes",
		"cluster.wait_s", "cluster.wait_max_over_median", "cluster.send_s",
		"cluster.messages", "cluster.bytes_accounted",
	} {
		rec.layer(name, s[name]/n, ph.calls())
	}
	for _, cl := range classNames {
		for _, m := range []string{"cluster.wait_s.", "cluster.messages.", "cluster.bytes_accounted."} {
			rec.layer(m+cl, s[m+cl]/n, ph.calls())
		}
	}
	rec.layer("dne.allocs", plain.runtime.allocs/float64(plain.calls()), plain.calls())
	rec.layer("dne.alloc_bytes", plain.runtime.allocBytes/float64(plain.calls()), plain.calls())
	if c.tcp {
		rec.layer("cluster.wire_bytes_sent", s["cluster.wire_bytes_sent"]/n, ph.calls())
		rec.layer("cluster.wire_bytes_recv", s["cluster.wire_bytes_recv"]/n, ph.calls())
		rec.layer("cluster.wire_over_accounted", s["cluster.wire_bytes_sent"]/s["cluster.bytes_accounted"], ph.calls())
		rec.layer("cluster.dial_s", s["cluster.dial_s"]/n, ph.calls())
	}
	rec.layer("trace.coverage", s["trace.covered_s"]/s["trace.wall_s"], ph.calls())
}
