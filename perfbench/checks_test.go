package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/gen"
	"github.com/distributedne/dne/internal/graph"
	"github.com/distributedne/dne/internal/live"
	"github.com/distributedne/dne/internal/partition"
	"github.com/distributedne/dne/internal/store"
)

// Each correctness check of the benchmark must pass on the program's real
// output and trip on a tampered copy of it.

func smallDNE(t *testing.T, tcp bool) *dneCase {
	t.Helper()
	c := &dneCase{tcp: tcp, family: "rmat", scale: 10, edgeFactor: 8, parts: 4, cfg: dne.DefaultConfig(), seeds: dneSeeds(1, 2)}
	if err := c.setUp(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCheckShardResultTripsOnTampering(t *testing.T) {
	c := smallDNE(t, false)
	res, _, err := partitionInProcess(context.Background(), c.shards(), c.config(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkShardResult(res, c.stripes, c.parts); err != nil {
		t.Fatalf("real output: %v", err)
	}
	tamper := map[string]func(r *dne.ShardResult){
		"owner out of range": func(r *dne.ShardResult) { r.Owner[7] = int32(c.parts) },
		"negative owner":     func(r *dne.ShardResult) { r.Owner[0] = -1 },
		"edge dropped":       func(r *dne.ShardResult) { r.Keys, r.Owner = r.Keys[1:], r.Owner[1:] },
		"edge duplicated":    func(r *dne.ShardResult) { r.Keys[1], r.Owner[1] = r.Keys[0], r.Owner[0] },
		"owner missing":      func(r *dne.ShardResult) { r.Owner = r.Owner[:len(r.Owner)-1] },
		"no result":          nil,
	}
	for _, name := range sortedKeys(tamper) {
		bad := &dne.ShardResult{NumParts: res.NumParts, Keys: slices.Clone(res.Keys), Owner: slices.Clone(res.Owner)}
		if f := tamper[name]; f != nil {
			f(bad)
		} else {
			bad = nil
		}
		if checkShardResult(bad, c.stripes, c.parts) == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestTCPChecksumMustMatchInProcessRun(t *testing.T) {
	c := smallDNE(t, true)
	if _, err := c.call(context.Background(), nil); err != nil {
		t.Fatalf("real output: %v", err)
	}
	c.reference[1] ^= 1
	if _, err := c.call(context.Background(), nil); err == nil {
		t.Fatal("call passed against a tampered reference checksum")
	}
}

// flakyCase returns a different checksum on every call to the same input.
type flakyCase struct{ calls int }

func (f *flakyCase) params() map[string]any                    { return nil }
func (f *flakyCase) setUp(context.Context, int64) error        { return nil }
func (f *flakyCase) numEdges() int64                           { return 1 }
func (f *flakyCase) quality(callOut) (float64, float64, error) { return 1, 1, nil }
func (f *flakyCase) layers(*recorder, *tracing, phaseOut, phaseOut) {
}
func (f *flakyCase) call(context.Context, *tracing) (callOut, error) {
	f.calls++
	return callOut{wall: 1, checksum: uint64(f.calls)}, nil
}

func TestRepeatedCallsMustAgreeOnChecksum(t *testing.T) {
	b := &bench{rec: &recorder{}}
	if _, err := partitionPhase(context.Background(), b, &flakyCase{}, 0, nil); err != nil {
		t.Fatal(err)
	}
	if b.rec.failed != minCalls-1 {
		t.Fatalf("%d of %d calls failed, want every call after the first", b.rec.failed, b.rec.attempted)
	}
}

func TestCheckOwnersTripsOnTampering(t *testing.T) {
	p := &partition.Partitioning{NumParts: 4, Owner: []int32{0, 1, 2, 3, 0}}
	if err := checkOwners(p, 5, 4); err != nil {
		t.Fatalf("real output: %v", err)
	}
	for name, bad := range map[string]*partition.Partitioning{
		"owner out of range": {NumParts: 4, Owner: []int32{0, 1, 4, 3, 0}},
		"edge without owner": {NumParts: 4, Owner: []int32{0, 1, 2, 3}},
		"wrong part count":   {NumParts: 3, Owner: []int32{0, 1, 2, 0, 0}},
		"no partitioning":    nil,
	} {
		if checkOwners(bad, 5, 4) == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestCheckAnswerTripsOnTampering(t *testing.T) {
	ctx := context.Background()
	g := gen.RMAT(10, 8, 1)
	res, err := dne.Partitioner{}.Partition(ctx, g, partition.NewSpec(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Build(g, res)
	if err != nil {
		t.Fatal(err)
	}
	verts := nonIsolated(g)
	for _, q := range drawQueries(1, 200) {
		v, _ := pickVertex(verts, st.NumVertices(), q.u)
		a, err := runQuery(ctx, st, q, v)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAnswer(g, a); err != nil {
			t.Fatalf("real answer: %v", err)
		}
		switch q.kind {
		case kindDegree:
			a.degree++
		case kindNeighbors:
			a.neighbors = a.neighbors[1:]
		case kindKHop:
			a.khop.Depths = slices.Clone(a.khop.Depths)
			a.khop.Depths[len(a.khop.Depths)-1]++
		}
		if checkAnswer(g, a) == nil {
			t.Fatalf("tampered %s answer passed", kindNames[q.kind])
		}
	}
}

func TestLiveChecksTripOnTampering(t *testing.T) {
	g := gen.RMAT(10, 8, 1)
	events := dynpart.Churn(g, int(g.NumEdges()), liveDeleteP, 1)
	lv, err := live.Open(filepath.Join(t.TempDir(), "live"), live.Config{NumParts: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	if _, err := lv.Apply(events); err != nil {
		t.Fatal(err)
	}
	sum, err := checkLive(lv)
	if err != nil {
		t.Fatalf("real state: %v", err)
	}
	if err := sameChecksums([]uint64{sum, sum}); err != nil {
		t.Fatalf("equal checksums: %v", err)
	}
	if sameChecksums([]uint64{sum, sum ^ 1}) == nil {
		t.Error("differing checksums passed")
	}
	// Retract a live edge from the placement state alone, on a partition
	// that holds no edge of one endpoint: that endpoint's incidence count
	// there wraps around while its replica bit stays clear.
	st := lv.State()
	for _, k := range lv.Epoch().ShardEdgesPacked(0) {
		e := graph.UnpackEdge(k)
		for q := 1; q < st.NumParts(); q++ {
			if !st.HasReplica(e.U, q) {
				st.ApplyDelete(e.U, e.V, int32(q))
				if _, err := checkLive(lv); err == nil {
					t.Error("corrupted placement state passed")
				}
				return
			}
		}
	}
	t.Fatal("no edge to corrupt the state with")
}

// recordAll records every end-to-end metric of BENCHMARK.json as 1.
func recordAll(rec *recorder) {
	for _, m := range endToEnd {
		rec.e2e(m.name, 1, m.unit, 1)
	}
}

func TestFailedChecksFailTheRun(t *testing.T) {
	rec := &recorder{}
	recordAll(rec)
	rec.attempt(2)
	rec.fail(errors.New("tampered"))
	var out testWriter
	if err := rec.print(&out, &bench{env: map[string]any{}}); err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal([]byte(out.lastLine()), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result line %s", out.lastLine())
	}
}

// TestIncompleteResultIsRefused checks that a run prints no result line
// when an end-to-end metric is missing, recorded twice or reads 0.
func TestIncompleteResultIsRefused(t *testing.T) {
	for name, tamper := range map[string]func(rec *recorder){
		"missing":  func(rec *recorder) { rec.endToEnd = rec.endToEnd[1:] },
		"repeated": func(rec *recorder) { rec.endToEnd = append(rec.endToEnd, rec.endToEnd[0]) },
		"zero":     func(rec *recorder) { rec.endToEnd[len(rec.endToEnd)-1].Value = 0 },
	} {
		rec := &recorder{}
		recordAll(rec)
		rec.attempt(1)
		tamper(rec)
		var out testWriter
		if err := rec.print(&out, &bench{env: map[string]any{}}); err == nil {
			t.Errorf("%s metric: printed %s", name, out.lastLine())
		}
	}
}

type testWriter struct{ lines []string }

func (w *testWriter) Write(p []byte) (int, error) {
	w.lines = append(w.lines, string(p))
	return len(p), nil
}

func (w *testWriter) lastLine() string {
	l := w.lines[len(w.lines)-1]
	return l[:len(l)-1]
}

func TestMain(m *testing.M) {
	// The stream set-up and the piped shuffle write under os.TempDir.
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	os.Setenv("TMPDIR", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}
