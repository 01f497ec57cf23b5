package soc

import (
	"fmt"

	"repro/internal/sim"
)

// clusterSnap is a copy of one cluster's mutable state at an instant when no
// task is live, so it holds no run queue: clocks, caps, busy accounting and
// the idle ladder.
type clusterSnap struct {
	oppIdx, reqIdx int
	caps           []freqCap

	lastSettle  sim.Time
	pending     sim.EventID
	havePending bool

	cumBusy   sim.Duration
	coreBusy  []sim.Duration
	busyByOPP []sim.Duration

	gridStep sim.Duration
	gridNext sim.Time
	grid     []sim.Duration

	idleState   int
	idleSince   sim.Time
	idlePred    sim.Duration
	idleRes     []sim.Duration
	idleWakes   int
	idleMispred int
	waking      bool
	wakeUntil   sim.Time
	stallSince  sim.Time
	stallTime   sim.Duration
	activeOpen  bool
	activeSince sim.Time
	activeWall  sim.Duration
}

// Snap is a snapshot of a whole SoC taken while no task is live (the device
// boot instant): every cluster's clocks, caps, busy accounting and idle
// ladder, and the scheduler's migration count and tick flag. A Snap is only
// meaningful together with the sim.EngineSnap taken at the same instant —
// pending cluster and scheduler events live in the engine queue.
type Snap struct {
	clusters []clusterSnap

	migrations  int
	tickPending bool
}

func (c *Cluster) snapshot(s *clusterSnap) {
	s.oppIdx, s.reqIdx = c.oppIdx, c.reqIdx
	s.caps = append(s.caps[:0], c.caps...)
	s.lastSettle = c.lastSettle
	s.pending, s.havePending = c.pending, c.havePending
	s.cumBusy = c.cumBusy
	s.coreBusy = append(s.coreBusy[:0], c.coreBusy...)
	s.busyByOPP = append(s.busyByOPP[:0], c.busyByOPP...)
	s.gridStep, s.gridNext = c.gridStep, c.gridNext
	s.grid = append(s.grid[:0], c.grid...)
	s.idleState, s.idleSince, s.idlePred = c.idleState, c.idleSince, c.idlePred
	s.idleRes = append(s.idleRes[:0], c.idleRes...)
	s.idleWakes, s.idleMispred = c.idleWakes, c.idleMispred
	s.waking, s.wakeUntil = c.waking, c.wakeUntil
	s.stallSince, s.stallTime = c.stallSince, c.stallTime
	s.activeOpen, s.activeSince, s.activeWall = c.activeOpen, c.activeSince, c.activeWall
}

func (c *Cluster) restore(s *clusterSnap) {
	c.oppIdx, c.reqIdx = s.oppIdx, s.reqIdx
	c.caps = append(c.caps[:0], s.caps...)
	c.runq = c.runq[:0]
	c.running = c.running[:0]
	c.sliceEnds = c.sliceEnds[:0]
	c.coreOf = c.coreOf[:0]
	clear(c.coreUsed)
	c.lastSettle = s.lastSettle
	c.pending, c.havePending = s.pending, s.havePending
	c.cumBusy = s.cumBusy
	c.coreBusy = append(c.coreBusy[:0], s.coreBusy...)
	c.busyByOPP = append(c.busyByOPP[:0], s.busyByOPP...)
	c.gridStep, c.gridNext = s.gridStep, s.gridNext
	c.grid = append(c.grid[:0], s.grid...)
	c.idleState, c.idleSince, c.idlePred = s.idleState, s.idleSince, s.idlePred
	c.idleRes = append(c.idleRes[:0], s.idleRes...)
	c.idleWakes, c.idleMispred = s.idleWakes, s.idleMispred
	c.waking, c.wakeUntil = s.waking, s.wakeUntil
	c.stallSince, c.stallTime = s.stallSince, s.stallTime
	c.activeOpen, c.activeSince, c.activeWall = s.activeOpen, s.activeSince, s.activeWall
}

// Snapshot copies the SoC's state into sn, reusing its buffers. Take it at
// the same instant as the engine snapshot it pairs with. It panics while a
// task is live — queued, running or awaiting zero-cycle completion — because
// a Snap holds no task bodies.
func (s *SoC) Snapshot(sn *Snap) {
	if n := len(s.zq.q); n > 0 {
		panic(fmt.Sprintf("soc: Snapshot with %d zero-cycle tasks pending", n))
	}
	for _, c := range s.clusters {
		if n := c.Runnable(); n > 0 {
			panic(fmt.Sprintf("soc: Snapshot with %d tasks live on cluster %q", n, c.name))
		}
	}
	if cap(sn.clusters) < len(s.clusters) {
		sn.clusters = make([]clusterSnap, len(s.clusters))
	}
	sn.clusters = sn.clusters[:len(s.clusters)]
	for i, c := range s.clusters {
		c.snapshot(&sn.clusters[i])
	}
	if s.sched != nil {
		sn.migrations, sn.tickPending = s.sched.migrations, s.sched.tickPending
	}
}

// Restore rewinds the SoC to the snapshotted state. Tasks live when Restore
// is called are dropped: the run queues and the zero-cycle queue empty, and
// every task the pool ever created is free again, in creation order. Pair
// with sim.Engine.Restore of the matching engine snapshot.
func (s *SoC) Restore(sn *Snap) {
	for i, c := range s.clusters {
		c.restore(&sn.clusters[i])
	}
	s.zq.q = s.zq.q[:0]
	if s.sched != nil {
		s.sched.migrations, s.sched.tickPending = sn.migrations, sn.tickPending
	}
	s.pool.freeAll()
}

// FaultTruncate drops the snapshot's cluster table, so the next Restore from
// it panics deterministically (index out of range): the fault-injection form
// of a damaged checkpoint. Fault-injection suites only.
func (sn *Snap) FaultTruncate() { sn.clusters = sn.clusters[:0] }
