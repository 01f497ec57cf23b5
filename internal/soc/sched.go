package soc

import "repro/internal/sim"

// SchedParams tunes the SoC task scheduler, a deterministic HMP-style
// (heterogeneous multi-processing) policy: tasks wake little-first, overflow
// up to bigger clusters under load, and spill back down when big cores free
// up while little queues are empty.
type SchedParams struct {
	// Period is the rebalance tick period (default 20 ms, the same order as
	// the governors' sampling timers).
	Period sim.Duration
	// UpRunnablePerCore is the per-core runnable-task count at which a
	// cluster is considered overloaded and queued tasks up-migrate to a
	// less-loaded bigger cluster (default 2).
	UpRunnablePerCore int
	// UpCycles is the burst size from which a task counts as "heavy" and
	// wakes on the big end of the SoC — the simulator's stand-in for HMP's
	// per-entity load tracking (default 100M cycles, which sends medium UI
	// work, app-launch chunks and exports big while keypresses, tiny UI and
	// animation frames stay little).
	UpCycles Cycles
}

// DefaultSchedParams returns the standard HMP tunables.
func DefaultSchedParams() SchedParams {
	return SchedParams{Period: 20 * sim.Millisecond, UpRunnablePerCore: 2, UpCycles: 100_000_000}
}

func (p SchedParams) withDefaults() SchedParams {
	if p.Period <= 0 {
		p.Period = 20 * sim.Millisecond
	}
	if p.UpRunnablePerCore <= 0 {
		p.UpRunnablePerCore = 2
	}
	if p.UpCycles <= 0 {
		p.UpCycles = 100_000_000
	}
	return p
}

// scheduler owns task placement and migration for a multi-cluster SoC. It is
// only instantiated when the spec has at least two clusters, so the paper's
// single-cluster Dragonboard runs produce exactly the event sequence of the
// pre-multi-cluster simulator.
type scheduler struct {
	soc         *SoC
	params      SchedParams
	migrations  int
	tickPending bool
	// tickCb is the one pre-bound rebalance callback, so arming the tick
	// never allocates.
	tickCb func()
	// reversed caches the clusters in big-to-little order, so the per-submit
	// placement scan never allocates.
	reversed []*Cluster
}

func newScheduler(s *SoC, params SchedParams) *scheduler {
	sc := &scheduler{soc: s, params: params.withDefaults()}
	sc.reversed = make([]*Cluster, len(s.clusters))
	for i, c := range s.clusters {
		sc.reversed[len(s.clusters)-1-i] = c
	}
	for _, c := range s.clusters {
		c := c
		c.onIdleCore = func() { sc.onIdle(c) }
	}
	sc.tickCb = func() {
		sc.tickPending = false
		sc.rebalance()
		for _, c := range sc.soc.clusters {
			if c.Runnable() > 0 {
				sc.armTick()
				return
			}
		}
	}
	return sc
}

// armTick schedules the next rebalance pass. The tick is lazy: it runs only
// while the SoC has runnable work and disarms when everything drains, so an
// idle device (and a finished simulation) schedules no events at all.
func (sc *scheduler) armTick() {
	if sc.tickPending {
		return
	}
	sc.tickPending = true
	sc.soc.eng.AfterFunc(sc.params.Period, sc.tickCb)
}

// submit places a migratable task. Light tasks wake little-first: the first
// cluster with a free core wins. Heavy tasks (>= UpCycles) wake big-first,
// the way HMP's load tracking steers high-load entities to the performance
// cluster. With every core on the SoC busy, the task queues on the cluster
// with the fewest runnable tasks per core (ties toward the preferred end),
// where the rebalance tick can still move it later.
func (sc *scheduler) submit(name string, cycles Cycles, onDone func(at sim.Time)) Handle {
	t := sc.soc.pool.get()
	t.Name, t.remaining, t.onDone, t.affinity = name, cycles, onDone, AnyCluster
	h := Handle{t: t, gen: t.gen}
	if cycles <= 0 {
		sc.soc.zq.push(t)
		return h
	}
	sc.place(t).enqueue(t)
	sc.armTick()
	return h
}

func (sc *scheduler) place(t *Task) *Cluster {
	order := sc.soc.clusters
	if t.remaining >= sc.params.UpCycles {
		// Heavy: scan from the big end.
		order = sc.reversed
	}
	for _, c := range order {
		if c.FreeCores() > 0 {
			return c
		}
	}
	best := order[0]
	bestLoad := loadPerCore(best)
	for _, c := range order[1:] {
		if l := loadPerCore(c); l < bestLoad {
			best, bestLoad = c, l
		}
	}
	return best
}

// loadPerCore is the scheduler's load signal: runnable tasks per core,
// scaled by 1000 to keep integer arithmetic deterministic.
func loadPerCore(c *Cluster) int {
	return c.Runnable() * 1000 / c.nCores
}

// onIdle fires when a core slot frees up with the cluster's own queue
// drained: pull the oldest migratable queued task from a sibling cluster.
// A freed big core up-pulls little-cluster backlog; a freed little core
// spills big-cluster overflow back down. Both directions keep the SoC
// work-conserving between rebalance ticks.
func (sc *scheduler) onIdle(idle *Cluster) {
	if idle.FreeCores() == 0 || idle.QueueLen() > 0 {
		return
	}
	for _, c := range sc.soc.clusters {
		if c == idle || c.QueueLen() == 0 {
			continue
		}
		if t := c.stealQueued(); t != nil {
			sc.migrations++
			idle.enqueue(t)
			return
		}
	}
}

// rebalance is the periodic HMP pass. Up-migration: a cluster whose runnable
// count per core reaches UpRunnablePerCore sheds one queued task per tick to
// the least-loaded strictly-bigger cluster, provided that target is less
// loaded — big cores drain queues faster even when none are idle.
// Down-migration (idle spill) is handled eagerly by onIdle; the tick only
// covers it for tasks that were pinned-blocked at the instant a core freed.
func (sc *scheduler) rebalance() {
	clusters := sc.soc.clusters
	for i, c := range clusters {
		if c.QueueLen() == 0 || loadPerCore(c) < sc.params.UpRunnablePerCore*1000 {
			continue
		}
		var target *Cluster
		targetLoad := loadPerCore(c)
		for _, b := range clusters[i+1:] {
			if l := loadPerCore(b); l < targetLoad {
				target, targetLoad = b, l
			}
		}
		if target == nil {
			continue
		}
		if t := c.stealQueued(); t != nil {
			sc.migrations++
			target.enqueue(t)
		}
	}
	// Spill any remaining queued work onto idle cores elsewhere.
	for _, c := range clusters {
		if c.FreeCores() > 0 {
			sc.onIdle(c)
		}
	}
}
