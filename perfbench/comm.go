package main

import (
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/distributedne/dne/internal/cluster"
	"github.com/distributedne/dne/internal/obs"
)

// msgClass groups message tags the way the per-layer metrics report them.
type msgClass int

const (
	classShuffle msgClass = iota
	classSelect
	classSync
	classBoundary
	classEdges
	classResult
	classCollective
	numClasses
)

var classNames = [numClasses]string{"shuffle", "select", "sync", "boundary", "edges", "result", "collective"}

// classOf maps a tag to its class. The values mirror the two tag spaces
// dne.PartitionShards uses, neither of which is exported: cluster reserves
// tags below cluster.TagUser for its collectives (3 and 4 frame the
// chunked AllToAll that shuffles shards), and dne numbers its protocol
// tags from cluster.TagUser in the order select, sync, boundary, edges,
// result. TestDNEClassesSeeTraffic fails if either numbering moves.
func classOf(t cluster.Tag) msgClass {
	if t == 3 || t == 4 {
		return classShuffle
	}
	if t < cluster.TagUser {
		return classCollective
	}
	// select, sync, boundary, edges, result follow each other in both
	// numberings.
	if c := classSelect + msgClass(t-cluster.TagUser); c <= classResult {
		return c
	}
	return classCollective
}

// rankTimes is one rank's split of its partition call. Every instant
// between the start of the call and its return is either inside a Comm
// call (send, or wait for a blocking receive or barrier) or busy in the
// algorithm; busy time is charged to the class of the Comm call that ends
// it, and the busy tail after the last Comm call to the last class.
type rankTimes struct {
	busy, wait, send [numClasses]time.Duration
	msgs, bytes      [numClasses]int64
	total            time.Duration
}

// timedComm wraps one rank's communicator for a traced call. Each rank is
// driven by one goroutine, so no field needs a lock. With a tracer it
// records one span per protocol phase: a maximal run of Comm calls of one
// class together with the busy time that led up to them. The spans of a
// rank tile its call, so the trace stays small (a few spans per superstep)
// and still adds up to the wall clock.
type timedComm struct {
	cluster.Comm
	t      *rankTimes
	tracer *obs.Tracer
	track  string

	start, last time.Time // call start; end of the previous Comm call
	cur         msgClass  // class of the open phase span, -1 before the first call
	phaseStart  time.Time
	phaseBusy   time.Duration
	phaseComm   time.Duration
	phaseCalls  int
}

func newTimedComm(c cluster.Comm, t *rankTimes, tracer *obs.Tracer) *timedComm {
	now := time.Now()
	return &timedComm{
		Comm: c, t: t, tracer: tracer, track: "rank " + strconv.Itoa(c.Rank()),
		start: now, last: now, cur: -1, phaseStart: now,
	}
}

// around runs one Comm call of class c, charging the busy time before it
// and the call itself, plus the messages and accounted bytes the call sent.
func (w *timedComm) around(c msgClass, blocking bool, call func()) {
	st := w.Comm.Stats()
	msgs, bytes := st.MessagesSent.Load(), st.BytesSent.Load()
	t0 := time.Now()
	if c != w.cur {
		w.closePhase()
		w.cur = c
	}
	busy := t0.Sub(w.last)
	call()
	t1 := time.Now()
	in := t1.Sub(t0)
	w.t.busy[c] += busy
	if blocking {
		w.t.wait[c] += in
	} else {
		w.t.send[c] += in
	}
	w.t.msgs[c] += st.MessagesSent.Load() - msgs
	w.t.bytes[c] += st.BytesSent.Load() - bytes
	w.phaseBusy += busy
	w.phaseComm += in
	w.phaseCalls++
	w.last = t1
}

func (w *timedComm) closePhase() {
	if w.cur < 0 {
		return
	}
	if w.tracer != nil {
		sp := obs.Span{
			Name:  classNames[w.cur],
			Cat:   w.track,
			Start: w.phaseStart.UnixNano(),
			Dur:   int64(w.last.Sub(w.phaseStart)),
			Attrs: map[string]string{
				"busy_us": strconv.FormatInt(w.phaseBusy.Microseconds(), 10),
				"comm_us": strconv.FormatInt(w.phaseComm.Microseconds(), 10),
				"calls":   strconv.Itoa(w.phaseCalls),
			},
		}
		w.tracer.Record(sp)
	}
	w.phaseStart = w.last
	w.phaseBusy, w.phaseComm, w.phaseCalls = 0, 0, 0
}

// finish charges the busy tail after the last Comm call and closes the
// last phase span; call it when the partition call returns.
func (w *timedComm) finish() {
	now := time.Now()
	if w.cur >= 0 {
		tail := now.Sub(w.last)
		w.t.busy[w.cur] += tail
		w.phaseBusy += tail
	}
	w.last = now
	w.closePhase()
	w.t.total = now.Sub(w.start)
}

func (w *timedComm) Send(to int, tag cluster.Tag, body cluster.Body) {
	w.around(classOf(tag), false, func() { w.Comm.Send(to, tag, body) })
}

func (w *timedComm) Recv(tag cluster.Tag) (m cluster.Message) {
	w.around(classOf(tag), true, func() { m = w.Comm.Recv(tag) })
	return m
}

func (w *timedComm) RecvN(tag cluster.Tag, n int) (ms []cluster.Message) {
	w.around(classOf(tag), true, func() { ms = w.Comm.RecvN(tag, n) })
	return ms
}

func (w *timedComm) TryRecvAll(tag cluster.Tag) (ms []cluster.Message) {
	w.around(classOf(tag), true, func() { ms = w.Comm.TryRecvAll(tag) })
	return ms
}

func (w *timedComm) Barrier() {
	w.around(classCollective, true, w.Comm.Barrier)
}

// countingConn counts the bytes a TCP rank writes to and reads from its
// socket.
type countingConn struct {
	net.Conn
	sent, recv *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv.Add(int64(n))
	return n, err
}
