package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/methods"
	_ "github.com/distributedne/dne/internal/methods/all"
	"github.com/distributedne/dne/internal/obs"
	"github.com/distributedne/dne/internal/partition"
)

// streamCase is the input plane: canonical ESZ1 stripes written during
// set-up, and per call a fresh graph.DirSource partitioned by pipelined
// HDRF.
type streamCase struct {
	scale, edgeFactor, stripes, parts int
	method                            string
	seed                              int64

	dir         string
	edges       int64
	numVertices uint32
}

// streamHDRF streams RMAT scale 19 (edge factor 16) from 8 compressed
// stripes into HDRF with P=4.
func streamHDRF(seed int64) partitionCase {
	return &streamCase{scale: 19, edgeFactor: 16, stripes: 8, parts: 4, method: "hdrf", seed: seed}
}

func (c *streamCase) params() map[string]any {
	return map[string]any{
		"graph": "rmat", "scale": c.scale, "edge_factor": c.edgeFactor, "parts": c.parts,
		"method": c.method, "stripes": c.stripes, "format": "esz1",
	}
}

func (c *streamCase) setUp(ctx context.Context, seed int64) error {
	g := gen.RMAT(c.scale, c.edgeFactor, seed)
	c.dir = filepath.Join(os.TempDir(), "stripes")
	if err := os.RemoveAll(c.dir); err != nil {
		return err
	}
	c.edges, c.numVertices = g.NumEdges(), g.NumVertices()
	return graph.WriteCanonicalShardsCompressed(c.dir, g, c.stripes)
}

func (c *streamCase) numEdges() int64 { return c.edges }

func (c *streamCase) call(ctx context.Context, t *tracing) (callOut, error) {
	read0 := graph.StreamBytesRead()
	start := time.Now()
	src, err := graph.DirSource(c.dir)
	if err != nil {
		return callOut{}, err
	}
	var probe *timedSource
	if t != nil {
		probe = &timedSource{Source: src, tracer: t.tracer}
		src = probe
	}
	res, err := methods.PartitionSourcePiped(ctx, c.method, src, partition.NewSpec(c.parts, c.seed))
	wall := time.Since(start)
	if err != nil {
		return callOut{}, err
	}
	if t != nil {
		t.tracer.Record(spanFrom("PartitionSourcePiped", "bench", start, wall))
		c.accumulate(t, probe, res, graph.StreamBytesRead()-read0, wall)
	}
	if err := checkOwners(res.Partitioning, c.edges, c.parts); err != nil {
		return callOut{}, err
	}
	return callOut{wall: wall, checksum: partition.Checksum(res.Partitioning.Owner), result: res.Partitioning}, nil
}

// checkOwners verifies that p gives each of the stream's edges exactly one
// owner in [0, parts): one owner slot per stream position, each in range.
func checkOwners(p *partition.Partitioning, edges int64, parts int) error {
	if p == nil || p.NumParts != parts || int64(len(p.Owner)) != edges {
		return fmt.Errorf("partitioning does not hold one owner for each of %d edges in %d parts", edges, parts)
	}
	for i, o := range p.Owner {
		if o < 0 || int(o) >= parts {
			return fmt.Errorf("edge %d: owner %d outside [0,%d)", i, o, parts)
		}
	}
	return nil
}

// quality tallies the partitioning against one more pass over the
// stripes: owners are indexed by stream position.
func (c *streamCase) quality(out callOut) (float64, float64, error) {
	p := out.result.(*partition.Partitioning)
	tally, err := newPartTally(c.numVertices, c.parts)
	if err != nil {
		return 0, 0, err
	}
	src, err := graph.DirSource(c.dir)
	if err != nil {
		return 0, 0, err
	}
	st, err := src.Edges()
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	var pos int64
	for {
		keys, _, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		for _, k := range keys {
			if pos >= int64(len(p.Owner)) {
				return 0, 0, fmt.Errorf("stream holds more than the %d edges partitioned", len(p.Owner))
			}
			if err := tally.add(k, p.Owner[pos]); err != nil {
				return 0, 0, err
			}
			pos++
		}
	}
	rf, bal := tally.result()
	return rf, bal, nil
}

func (c *streamCase) accumulate(t *tracing, probe *timedSource, res *partition.Result, bytesRead int64, wall time.Duration) {
	s := t.sums
	phases := map[string]float64{}
	for _, ph := range res.Stats.Phases {
		phases[ph.Name] += ph.Elapsed.Seconds()
	}
	// The scatter pass runs inside the partition phase, on its critical
	// path; decode runs ahead on the prefetch goroutine, off it.
	s["graph.scatter_s"] += phases["scatter"]
	s["streampart.core_s"] += phases["partition"] - phases["scatter"]
	s["partition.measure_s"] += phases[partition.PhaseMeasure]
	s["graph.decode_s"] += time.Duration(probe.nextNS.Load()).Seconds()
	s["graph.passes"] += float64(probe.passes.Load())
	s["graph.chunks"] += float64(probe.chunks.Load())
	s["graph.bytes_read"] += float64(bytesRead)
	s["trace.covered_s"] += phases["partition"] + phases[partition.PhaseMeasure]
	s["trace.wall_s"] += wall.Seconds()
	var phaseList []obs.Phase
	for _, ph := range res.Stats.Phases {
		if ph.Name == "partition" || ph.Name == partition.PhaseMeasure {
			phaseList = append(phaseList, obs.Phase{Name: ph.Name, Elapsed: ph.Elapsed})
		}
	}
	t.tracer.RecordPhases("phases", time.Now(), phaseList, nil)
}

func (c *streamCase) layers(rec *recorder, t *tracing, plain, ph phaseOut) {
	n := float64(ph.calls())
	for _, name := range []string{
		"graph.decode_s", "graph.passes", "graph.chunks", "graph.bytes_read", "graph.scatter_s",
		"streampart.core_s", "partition.measure_s",
	} {
		rec.layer(name, t.sums[name]/n, ph.calls())
	}
	rec.layer("trace.coverage", t.sums["trace.covered_s"]/t.sums["trace.wall_s"], ph.calls())
}

// timedSource wraps the graph.Source handed to the partitioner: it counts
// passes and chunks, times every Next (on the pipeline's decode
// goroutine, that is the file read and ESZ1 decode), and records a span
// per pass and per Next.
type timedSource struct {
	graph.Source
	tracer *obs.Tracer
	passes atomic.Int64
	chunks atomic.Int64
	nextNS atomic.Int64
}

// BytesRead passes the storage meter through, so the partitioner reports
// the same source_bytes_read as without the wrapper.
func (s *timedSource) BytesRead() int64 {
	if bm, ok := s.Source.(graph.ByteMeter); ok {
		return bm.BytesRead()
	}
	return 0
}

func (s *timedSource) Edges() (graph.EdgeStream, error) {
	st, err := s.Source.Edges()
	if err != nil {
		return nil, err
	}
	pass := s.passes.Add(1)
	return &timedStream{EdgeStream: st, src: s, pass: "pass " + strconv.FormatInt(pass, 10), start: time.Now()}, nil
}

type timedStream struct {
	graph.EdgeStream
	src   *timedSource
	pass  string
	start time.Time
}

func (st *timedStream) Next() ([]uint64, []int64, error) {
	t0 := time.Now()
	keys, pos, err := st.EdgeStream.Next()
	d := time.Since(t0)
	st.src.nextNS.Add(int64(d))
	if err == nil {
		st.src.chunks.Add(1)
	}
	st.src.tracer.Record(spanFrom("Next", "graph.next", t0, d))
	return keys, pos, err
}

func (st *timedStream) Close() error {
	err := st.EdgeStream.Close()
	st.src.tracer.Record(spanFrom(st.pass, "graph.pass", st.start, time.Since(st.start)))
	return err
}

func spanFrom(name, cat string, start time.Time, d time.Duration) obs.Span {
	return obs.Span{Name: name, Cat: cat, Start: start.UnixNano(), Dur: int64(d)}
}
