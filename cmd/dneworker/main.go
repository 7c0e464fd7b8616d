// Command dneworker is one machine of a multi-process Distributed NE run
// over TCP.
//
// Each worker reads only its own slice of the input — the shard files in
// -shard-dir whose index ≡ rank (mod size), as written by gengraph -shards —
// so no process holds the full graph while partitioning (rank 0 assembles
// the final 12-byte-per-edge owner sequence at collection time, after the
// algorithm finishes). The workers shuffle their shards to 2D-grid owners,
// expand, and rank 0 prints a RESULT line whose partitioning checksum
// equals dnepart -checksum for the same graph, seed and partition count:
//
//	gengraph -kind rmat -scale 16 -ef 16 -seed 42 -shards 8 -shard-dir shards/
//	dneworker -rank 0 -size 4 -addr 127.0.0.1:7777 -shard-dir shards/ &
//	dneworker -rank 1 -size 4 -addr 127.0.0.1:7777 -shard-dir shards/ &
//	dneworker -rank 2 -size 4 -addr 127.0.0.1:7777 -shard-dir shards/ &
//	dneworker -rank 3 -size 4 -addr 127.0.0.1:7777 -shard-dir shards/
//
// With -ckpt-dir the workers checkpoint every -ckpt-every supersteps and
// survive a worker crash: the restarted worker rejoins the mesh and every
// rank resumes from the newest checkpoint they all hold, with the same
// checksum as a fault-free run.
//
// Rank 0 hosts the router. examples/multiprocess spawns the arrangement
// automatically.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/dne"
	"github.com/distributedne/dne/internal/graph"
)

// hardAbortGrace is how long a worker keeps waiting for the collective
// (superstep-boundary) abort to complete after its context fires before the
// transport watchdog kills blocked receives outright.
const hardAbortGrace = 10 * time.Second

func main() {
	var (
		rank     = flag.Int("rank", 0, "this machine's rank in [0,size)")
		size     = flag.Int("size", 4, "number of machines (= partitions)")
		addr     = flag.String("addr", "127.0.0.1:7777", "router address (rank 0 listens here)")
		shardDir = flag.String("shard-dir", "", "read EShard files with index%size==rank from this directory (required)")
		seed     = flag.Int64("seed", 42, "shared random seed")
		alpha    = flag.Float64("alpha", 1.1, "imbalance factor")
		lambda   = flag.Float64("lambda", 0.1, "expansion factor")

		ckptDir      = flag.String("ckpt-dir", "", "fault tolerance: write per-superstep checkpoints here and survive worker restarts")
		ckptEvery    = flag.Int("ckpt-every", 1, "fault tolerance: checkpoint every N supersteps")
		maxRestarts  = flag.Int("max-restarts", 3, "fault tolerance: mesh rebuilds survived before giving up")
		rejoinWindow = flag.Duration("rejoin-window", 30*time.Second, "fault tolerance: how long the router waits for a restarted worker to rejoin")
		heartbeat    = flag.Duration("heartbeat", 0, "fault tolerance: heartbeat interval for detecting wedged peers (0 = off)")
	)
	flag.Parse()
	ft := ftFlags{dir: *ckptDir, every: *ckptEvery, maxRestarts: *maxRestarts,
		rejoinWindow: *rejoinWindow, heartbeat: *heartbeat}
	if err := run(*rank, *size, *addr, *shardDir, *seed, *alpha, *lambda, ft); err != nil {
		fmt.Fprintf(os.Stderr, "dneworker rank %d: %v\n", *rank, err)
		os.Exit(1)
	}
}

// ftFlags bundles the fault-tolerance command line. A non-empty dir turns
// the feature on: checkpoints are written there, the rank-0 router accepts
// mesh rebuilds, and a worker redials and resumes after a transport loss.
type ftFlags struct {
	dir          string
	every        int
	maxRestarts  int
	rejoinWindow time.Duration
	heartbeat    time.Duration
}

func (f ftFlags) enabled() bool { return f.dir != "" }

// heartbeatTimeout is the deadline paired with the heartbeat interval: a
// peer silent for four intervals is treated as dead.
func (f ftFlags) heartbeatTimeout() time.Duration {
	if f.heartbeat <= 0 {
		return 0
	}
	return 4 * f.heartbeat
}

func run(rank, size int, addr, shardDir string, seed int64, alpha, lambda float64, ft ftFlags) error {
	if shardDir == "" {
		return fmt.Errorf("-shard-dir is required (write the shards with gengraph -shards)")
	}
	var wait func() error
	if rank == 0 {
		ropt := cluster.RouterOptions{}
		if ft.enabled() {
			ropt.MaxRejoins = ft.maxRestarts
			ropt.RejoinWindow = ft.rejoinWindow
			ropt.HeartbeatTimeout = ft.heartbeatTimeout()
			ropt.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "router: "+format+"\n", args...)
			}
		}
		var err error
		_, wait, err = cluster.StartRouterOpts(addr, size, ropt)
		if err != nil {
			return err
		}
	}

	cfg := dne.DefaultConfig()
	cfg.Seed = seed
	cfg.Alpha = alpha
	cfg.Lambda = lambda

	// Ctrl-C aborts the run collectively: the local flag rides the next
	// superstep's select messages and every rank returns together. The
	// transport watchdog (hardCtx) is the backstop for when a peer is
	// already dead and those messages can never complete a superstep: a
	// grace period after the soft abort, blocked receives fail outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	hardCtx, hardCancel := context.WithCancel(context.Background())
	defer hardCancel()
	go func() {
		<-ctx.Done()
		time.Sleep(hardAbortGrace)
		hardCancel()
	}()

	runErr := runShards(ctx, hardCtx, rank, size, addr, shardDir, cfg, ft)
	if wait == nil {
		return runErr
	}
	if runErr == nil && !ft.enabled() {
		return wait()
	}
	// After a failure — or with rejoins enabled, where the router may hold
	// its rejoin window open — give the router a bounded grace period to
	// drain the final superstep's frames to the other ranks, so they abort
	// collectively rather than finding a dead connection.
	done := make(chan error, 1)
	go func() { done <- wait() }()
	select {
	case err := <-done:
		if runErr == nil {
			runErr = err
		}
	case <-time.After(3 * time.Second):
	}
	return runErr
}

// runShards partitions this rank's shard files; this rank never sees the
// full graph. Dials retry with backoff until the rank-0 router listens and
// give up when hardCtx fires. Without -ckpt-dir the run uses one connection
// and fails on a transport loss; with it, the fault-tolerant driver owns
// dialing, checkpoints every ft.every supersteps and rejoins after a
// transport loss. ctx aborts the run collectively at the next superstep
// boundary; hardCtx is the transport watchdog that kills blocked receives.
func runShards(ctx, hardCtx context.Context, rank, size int, addr, dir string, cfg dne.Config, ft ftFlags) error {
	start := time.Now()
	loadShard := func() (*graph.Shard, error) {
		shard, err := graph.ReadShardDir(dir, func(index, count uint32) bool {
			return int(index)%size == rank
		})
		if err != nil {
			return nil, err
		}
		fmt.Printf("rank %d: loaded %d shard edges (|V|=%d) from %s\n",
			rank, shard.NumEdges(), shard.NumVertices, dir)
		return shard, nil
	}
	pol := cluster.RetryPolicy{
		MaxAttempts: 50,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    100 * time.Millisecond,
		Seed:        cfg.Seed ^ int64(rank),
	}
	var res *dne.ShardResult
	var stats *dne.MachineStats
	if ft.enabled() {
		ckpt, err := dne.NewCheckpointer(ft.dir, rank, size, ft.every, cfg)
		if err != nil {
			return err
		}
		pol.MaxAttempts = 100
		pol.MaxDelay = ft.rejoinWindow / 10
		dopt := cluster.DialOptions{
			HeartbeatInterval: ft.heartbeat,
			HeartbeatTimeout:  ft.heartbeatTimeout(),
		}
		res, stats, err = dne.PartitionShardsFT(ctx, cfg, dne.FTOptions{
			Checkpoint: ckpt,
			Connect: func(context.Context) (cluster.Comm, error) {
				return cluster.DialTCPRetry(hardCtx, addr, rank, size, pol, dopt)
			},
			LoadShard:   loadShard,
			MaxRestarts: ft.maxRestarts,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
	} else {
		node, err := cluster.DialTCPRetry(hardCtx, addr, rank, size, pol, cluster.DialOptions{})
		if err != nil {
			return err
		}
		shard, err := loadShard()
		if err == nil {
			res, stats, err = dne.PartitionShards(ctx, node, shard, cfg)
		}
		// Close politely (Bye) on success and failure alike, so a failed
		// rank's peers abort collectively instead of finding a dead
		// connection.
		if cerr := node.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	fmt.Printf("rank %d: iterations=%d partition-edges=%d peak-mem=%.1fMB comm=%.1fMB\n",
		rank, stats.Iterations, stats.PartEdges,
		float64(stats.MemBytes)/(1<<20), float64(stats.CommBytes)/(1<<20))
	if res != nil {
		fmt.Printf("rank 0: RESULT |V|=%d |E|=%d parts=%d EB=%.3f checksum=%#x elapsed=%v\n",
			res.NumVertices, res.NumEdges(), res.NumParts, res.EdgeBalance(),
			res.Checksum(), time.Since(start))
	}
	return nil
}
