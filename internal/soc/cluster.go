// Package soc simulates the CPU subsystem of a mobile SoC as a set of
// frequency domains ("clusters"), each with its own OPP table, run queue and
// cpufreq-style busy-time accounting that frequency governors sample to
// compute load. The paper's Qualcomm Dragonboard APQ8074 — a single enabled
// Krait core (the paper switches off all cores except one "to reduce
// statistical noise from load balancing") with a 14-point DVFS ladder — is
// the single-cluster Dragonboard spec; heterogeneous big.LITTLE platforms
// are specs with several clusters glued together by the SoC task scheduler.
//
// Execution is cycle-accurate in the discrete-event sense: a task is a CPU
// burst of N cycles; running for t microseconds at f kHz consumes f·t/1000
// cycles. All busy time is attributed to the OPP it was executed at, which
// is exactly the frequency/load trace the paper collects in the background
// of every run.
//
// Units: frequencies are kHz (power.OPP.KHz), work is clock cycles
// (Cycles), and all times are virtual microseconds (sim.Time /
// sim.Duration). Concurrency: nothing in this package is safe for
// concurrent use — a Cluster, SoC and their Tasks belong to the goroutine
// driving their sim.Engine. Parallel sweeps get their isolation by giving
// every replay its own engine and SoC, never by sharing one.
package soc

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/sim"
)

// Cycles counts CPU work in clock cycles.
type Cycles int64

// TimeSlice is the round-robin scheduling quantum, matching a typical
// CFS-era Android kernel's effective interactive slice.
const TimeSlice = 10 * sim.Millisecond

// AnyCluster marks a task as migratable to any cluster by the scheduler.
const AnyCluster = -1

// Task is a runnable CPU burst. Tasks are pool-owned: Cluster.Submit and
// SoC.Submit draw one from the pool, the cluster owns it until completion or
// cancellation drains it back, and callers only ever hold a generation-
// checked Handle. Like every soc type, a Task belongs to its engine's
// goroutine: inspect or cancel it only from simulation callbacks.
type Task struct {
	// Name labels the burst in traces and diagnostics, e.g. "ui.anim".
	Name      string
	remaining Cycles
	onDone    func(at sim.Time)
	cancelled bool
	done      bool

	// affinity pins the task to one cluster index; AnyCluster lets the SoC
	// scheduler migrate it between clusters while it is queued.
	affinity int
	// owner is the cluster currently holding the task (nil once finished).
	owner *Cluster
	// gen is the pool generation, bumped when the pooled slot is reused, so
	// stale Handles can never touch a recycled task.
	gen uint32
}

// Done reports whether the task has finished executing.
func (t *Task) Done() bool { return t.done }

// Remaining returns the cycles the task still needs.
func (t *Task) Remaining() Cycles { return t.remaining }

// Affinity returns the cluster index the task is pinned to, or AnyCluster.
func (t *Task) Affinity() int { return t.affinity }

// Cluster is one CPU frequency domain: NumCores identical cores sharing a
// clock, a run queue, and per-OPP busy accounting. The paper's single
// enabled Krait core is a Cluster with NumCores=1.
//
// Frequency changes flow through a three-stage pipeline, mirroring cpufreq's
// policy resolution: the governor *requests* an OPP (RequestOPPIndex), the
// cluster's arbiter clamps it against every active frequency cap
// (SetFreqCap — thermal throttling today, others later), and the clamped
// index is *applied* to the clock. The request is remembered, so when a cap
// lifts the cluster returns to what its governor last asked for without the
// governor having to replay its decision.
type Cluster struct {
	eng    *sim.Engine
	tbl    power.Table
	name   string
	id     int
	nCores int

	oppIdx int       // applied operating point (post-arbitration)
	reqIdx int       // the governor's pending request (pre-arbitration)
	caps   []freqCap // active frequency caps; the minimum wins

	runq       []*Task
	running    []*Task    // tasks executing right now, one per busy core
	sliceEnds  []sim.Time // round-robin slice expiry, parallel to running
	coreOf     []int      // core slot each running task occupies, parallel to running
	coreUsed   []bool     // which core slots are occupied, len nCores
	lastSettle sim.Time

	pending     sim.EventID
	havePending bool
	// execCb is the one pre-bound execution callback the reschedule path
	// re-arms; keeping a single func value means arming the next completion
	// or slice event never allocates, no matter how often tasks churn.
	execCb func()
	// quietTick is the governor sample AfterIdle marked quiet, 0 when none
	// is; enqueue and a changed request wake it.
	quietTick sim.EventID

	cumBusy   sim.Duration   // core-time: sums across simultaneously busy cores
	coreBusy  []sim.Duration // cumulative busy per core slot, len nCores
	busyByOPP []sim.Duration

	// Busy grid: lazily filled samples of cumBusy on a fixed period, the
	// series the busy curves used to collect with a periodic engine event.
	// Because cumBusy accrues linearly (slope = number of running cores)
	// between settle points, every grid instant crossed by a settle can be
	// reconstructed exactly with integer math — so the samples are filled as
	// a side effect of the accounting the cluster does anyway, and the
	// 30 Hz sampling tick disappears from the event queue entirely.
	gridStep sim.Duration
	gridNext sim.Time
	grid     []sim.Duration

	// idle is the C-state ladder (nil keeps the idle subsystem disabled and
	// the pre-idle simulator bit for bit). While enabled, every instant of
	// cluster wall time is attributed to exactly one of: active (>=1 running
	// task), a wake stall, or residency in one idle state — the conservation
	// the residency tests pin.
	idle        []IdleState
	idleState   int          // current C-state, -1 while not idle
	idleSince   sim.Time     // entry instant of the current residency
	idlePred    sim.Duration // predicted next idle gap (last observed gap)
	idleRes     []sim.Duration
	idleWakes   int
	idleMispred int
	waking      bool     // exit-latency stall in progress
	wakeUntil   sim.Time // when the stall ends and dispatch resumes
	stallSince  sim.Time
	stallTime   sim.Duration
	activeOpen  bool // an active (>=1 running task) window is open
	activeSince sim.Time
	activeWall  sim.Duration

	// OnFreqChange, if set, observes every OPP transition (trace capture).
	OnFreqChange func(at sim.Time, oppIdx int)
	// OnCapChange, if set, observes every change of the effective frequency
	// cap (throttle-event trace capture). capIdx is the new effective cap;
	// capped is false when all caps have lifted.
	OnCapChange func(at sim.Time, capIdx int, capped bool)
	// onIdleCore, if set, notifies the SoC scheduler that a core slot became
	// free (used to pull queued work from sibling clusters immediately).
	onIdleCore func()

	// pool recycles Task objects; zq completes zero-cycle tasks through the
	// event queue. A standalone cluster owns both; clusters built by soc.New
	// share their SoC's, so migrated tasks drain to one pool.
	pool *taskPool
	zq   *zeroQ
}

// freqCap is one named frequency ceiling, e.g. {"thermal", 7}.
type freqCap struct {
	source string
	maxIdx int
}

// NewCluster returns a cluster attached to the engine, clocked at the lowest
// OPP. A NumCores below 1 is treated as 1.
func NewCluster(eng *sim.Engine, spec ClusterSpec) *Cluster {
	if err := spec.Table.Validate(); err != nil {
		panic(fmt.Sprintf("soc: invalid OPP table for cluster %q: %v", spec.Name, err))
	}
	n := spec.NumCores
	if n < 1 {
		n = 1
	}
	if err := validateIdleLadder(spec.IdleStates); err != nil {
		panic(fmt.Sprintf("soc: invalid idle ladder for cluster %q: %v", spec.Name, err))
	}
	c := &Cluster{
		eng:       eng,
		tbl:       spec.Table,
		name:      spec.Name,
		nCores:    n,
		coreUsed:  make([]bool, n),
		coreBusy:  make([]sim.Duration, n),
		busyByOPP: make([]sim.Duration, len(spec.Table)),
		idleState: -1,
	}
	c.execCb = func() {
		c.havePending = false
		c.onExecEvent()
	}
	c.pool = &taskPool{}
	c.zq = newZeroQ(eng, c.pool)
	if len(spec.IdleStates) > 0 {
		c.idle = append([]IdleState(nil), spec.IdleStates...)
		c.idleRes = make([]sim.Duration, len(c.idle))
	}
	c.reset()
	return c
}

// reset puts every field a run changes back to its boot value, keeping
// slice storage: lowest OPP, no caps, no tasks, no pending event, zero busy
// and idle accounting, no busy grid and, on an idle ladder, resident in the
// deepest state since the engine's current instant. Tasks still queued or
// running are dropped, not drained; their pool frees them (SoC.Reset).
func (c *Cluster) reset() {
	c.oppIdx, c.reqIdx = 0, 0
	c.caps = c.caps[:0]
	c.runq = c.runq[:0]
	c.running = c.running[:0]
	c.sliceEnds = c.sliceEnds[:0]
	c.coreOf = c.coreOf[:0]
	clear(c.coreUsed)
	c.lastSettle = 0
	c.pending, c.havePending = 0, false
	c.quietTick = 0
	c.cumBusy = 0
	clear(c.coreBusy)
	clear(c.busyByOPP)
	c.gridStep, c.gridNext, c.grid = 0, 0, nil
	clear(c.idleRes)
	c.idleWakes, c.idleMispred = 0, 0
	c.waking, c.wakeUntil = false, 0
	c.stallSince, c.stallTime = 0, 0
	c.activeOpen, c.activeSince, c.activeWall = false, 0, 0
	if c.idle != nil {
		// A freshly booted cluster is idle: sink to the deepest state so the
		// very first burst already pays a wake-up cost.
		c.idlePred = idlePredInit
		c.enterIdle(c.eng.Now())
	}
}

// NewCore returns a single-core cluster — the paper's one enabled Krait core.
func NewCore(eng *sim.Engine, tbl power.Table) *Cluster {
	return NewCluster(eng, ClusterSpec{Name: "cpu0", NumCores: 1, Table: tbl})
}

// Now returns current virtual time.
func (c *Cluster) Now() sim.Time { return c.eng.Now() }

// After schedules fn after d; governors use this for their sample timers.
// The callback goes to the engine as-is (sim.Engine.AfterFunc), so a governor
// that reschedules one pre-bound func value ticks forever without allocating.
func (c *Cluster) After(d sim.Duration, fn func()) {
	c.eng.AfterFunc(d, fn)
}

// AfterIdle schedules a governor sample like After and, while the cluster
// is idle — nothing running, nothing queued, no wake stall in progress —
// marks it quiet (sim.Engine.Quiet): the engine passes it every d without
// running it until work is queued here or the OPP request changes, which
// wake it. A governor arms a sample this way only when that sample, run on
// an idle cluster, would change nothing and re-arm itself d later; passing
// it also skips its settle, which on an idle cluster moves no task.
func (c *Cluster) AfterIdle(d sim.Duration, fn func()) {
	id := c.eng.AfterFunc(d, fn)
	if len(c.running) == 0 && len(c.runq) == 0 && !c.waking && c.eng.Quiet(id, d) {
		c.quietTick = id
	}
}

// wakeTick makes a quiet governor sample live again: the state it would
// read is about to change.
func (c *Cluster) wakeTick() {
	if c.quietTick != 0 {
		c.eng.Wake(c.quietTick)
		c.quietTick = 0
	}
}

// Table exposes the OPP table.
func (c *Cluster) Table() power.Table { return c.tbl }

// Name returns the cluster name, e.g. "little".
func (c *Cluster) Name() string { return c.name }

// ID returns the cluster's index within its SoC (0 when standalone).
func (c *Cluster) ID() int { return c.id }

// NumCores returns the number of cores sharing this frequency domain.
func (c *Cluster) NumCores() int { return c.nCores }

// OPPIndex returns the index of the applied operating point — the governor's
// request after arbitration against active caps.
func (c *Cluster) OPPIndex() int { return c.oppIdx }

// RequestedOPPIndex returns the governor's pending request, which may sit
// above the applied index while a cap is active.
func (c *Cluster) RequestedOPPIndex() int { return c.reqIdx }

// KHz returns the current clock in kHz.
func (c *Cluster) KHz() int { return c.tbl[c.oppIdx].KHz }

// CumulativeBusy returns total core-busy time since boot (a cluster with k
// busy cores accumulates k seconds of busy per wall second). Governors
// compute load as Δbusy/(Δwall·NumCores) over their sampling window, like
// cpufreq's get_cpu_idle_time-based accounting aggregated over a policy.
func (c *Cluster) CumulativeBusy() sim.Duration {
	c.settle()
	return c.cumBusy
}

// BusyByOPP returns a copy of the per-OPP busy-time histogram — the input to
// the power model's energy integration.
func (c *Cluster) BusyByOPP() []sim.Duration {
	return c.CopyBusyByOPP(nil)
}

// CopyBusyByOPP copies the per-OPP busy-time histogram into dst (reallocated
// if too small) and returns it — the allocation-free variant for hot-path
// callers like the thermal tick, which reads the histogram every 100 ms of
// simulated time.
func (c *Cluster) CopyBusyByOPP(dst []sim.Duration) []sim.Duration {
	c.settle()
	if cap(dst) < len(c.busyByOPP) {
		dst = make([]sim.Duration, len(c.busyByOPP))
	}
	dst = dst[:len(c.busyByOPP)]
	copy(dst, c.busyByOPP)
	return dst
}

// PerCoreBusy copies the cumulative busy time of every core slot into dst
// (reallocated if too small) and returns it, one entry per core in core-slot
// order. Dispatch always fills the lowest free slot, so one serial task on an
// otherwise idle cluster accumulates on a single entry — the signal that lets
// governors compute per-CPU load (max-of-CPUs) instead of the domain average
// that keeps a 4-core cluster cold while one core runs flat out. Not safe for
// concurrent use; call only from the cluster's own engine goroutine.
func (c *Cluster) PerCoreBusy(dst []sim.Duration) []sim.Duration {
	c.settle()
	if cap(dst) < c.nCores {
		dst = make([]sim.Duration, c.nCores)
	}
	dst = dst[:c.nCores]
	copy(dst, c.coreBusy)
	return dst
}

// Busy reports whether any core is executing right now.
func (c *Cluster) Busy() bool { return len(c.running) > 0 }

// QueueLen returns the number of runnable tasks excluding the running ones.
func (c *Cluster) QueueLen() int { return len(c.runq) }

// Runnable returns running plus queued tasks — the scheduler's load signal.
func (c *Cluster) Runnable() int { return len(c.running) + len(c.runq) }

// FreeCores returns the number of idle core slots.
func (c *Cluster) FreeCores() int { return c.nCores - len(c.running) }

// RequestOPPIndex is the governor-facing entry of the frequency pipeline: it
// records the requested operating point and applies it clamped to the
// effective cap, which with no caps active is the request itself. A changed
// request wakes a quiet governor sample (an input boost does this).
func (c *Cluster) RequestOPPIndex(i int) {
	if i < 0 {
		i = 0
	}
	if i >= len(c.tbl) {
		i = len(c.tbl) - 1
	}
	if i != c.reqIdx {
		c.wakeTick()
	}
	c.reqIdx = i
	c.apply()
}

// SetFreqCap installs or updates a named frequency ceiling: the applied OPP
// never exceeds maxIdx while the cap is active. Multiple sources may cap
// concurrently; the arbiter applies the minimum. A cap at or above the top
// of the ladder is equivalent to clearing it.
func (c *Cluster) SetFreqCap(source string, maxIdx int) {
	if maxIdx < 0 {
		maxIdx = 0
	}
	top := len(c.tbl) - 1
	if maxIdx >= top {
		c.ClearFreqCap(source)
		return
	}
	prev := c.CapIndex()
	found := false
	for k := range c.caps {
		if c.caps[k].source == source {
			c.caps[k].maxIdx = maxIdx
			found = true
			break
		}
	}
	if !found {
		c.caps = append(c.caps, freqCap{source: source, maxIdx: maxIdx})
	}
	if eff := c.CapIndex(); eff != prev && c.OnCapChange != nil {
		c.OnCapChange(c.eng.Now(), eff, true)
	}
	c.apply()
}

// ClearFreqCap removes a named cap. When the last cap lifts, the cluster
// returns to the governor's pending request.
func (c *Cluster) ClearFreqCap(source string) {
	prev := c.CapIndex()
	for k := range c.caps {
		if c.caps[k].source == source {
			c.caps = append(c.caps[:k], c.caps[k+1:]...)
			break
		}
	}
	if eff := c.CapIndex(); eff != prev && c.OnCapChange != nil {
		c.OnCapChange(c.eng.Now(), eff, len(c.caps) > 0)
	}
	c.apply()
}

// CapIndex returns the effective frequency cap: the minimum over all active
// caps, or the top of the ladder when none are active.
func (c *Cluster) CapIndex() int {
	eff := len(c.tbl) - 1
	for _, fc := range c.caps {
		if fc.maxIdx < eff {
			eff = fc.maxIdx
		}
	}
	return eff
}

// Capped reports whether any frequency cap is currently limiting the ladder.
func (c *Cluster) Capped() bool { return len(c.caps) > 0 }

// apply arbitrates the pending request against the effective cap and applies
// the result to the clock, settling in-flight execution so cycles before the
// change are attributed to the old frequency.
func (c *Cluster) apply() {
	target := c.reqIdx
	if cap := c.CapIndex(); target > cap {
		target = cap
	}
	if target == c.oppIdx {
		return
	}
	c.settle()
	c.oppIdx = target
	if c.OnFreqChange != nil {
		c.OnFreqChange(c.eng.Now(), target)
	}
	c.reschedule()
}

// Submit enqueues a CPU burst pinned to this cluster. onDone, if non-nil,
// fires at the completion instant. The returned Handle is generation-checked:
// once the burst retires and its pooled Task is recycled, the handle goes
// permanently stale. Zero-cycle tasks complete at the current virtual time
// but through the event queue (so callback ordering stays consistent with
// non-empty tasks), and remain cancellable until that event fires — Cancel
// before the completion event dequeues the pending onDone.
func (c *Cluster) Submit(name string, cycles Cycles, onDone func(at sim.Time)) Handle {
	t := c.pool.get()
	t.Name, t.remaining, t.onDone, t.affinity = name, cycles, onDone, c.id
	h := Handle{t: t, gen: t.gen}
	if cycles <= 0 {
		c.zq.push(t)
		return h
	}
	c.enqueue(t)
	return h
}

// enqueue admits an existing task (fresh or migrated) to the run queue,
// waking a quiet governor sample: the cluster is about to run.
func (c *Cluster) enqueue(t *Task) {
	t.owner = c
	c.wakeTick()
	c.settle()
	c.wakeFromIdle()
	c.runq = append(c.runq, t)
	c.reschedule()
}

// wakeFromIdle leaves the current C-state because work arrived: the
// residency is closed, the gap feeds the selector's predictor, and the
// state's exit latency opens a wake stall during which nothing dispatches —
// the wake-up cost race-to-idle pays on its next burst. A wake whose
// residency was shorter than the state's entry+exit latency is a selector
// misprediction (the sleep cost more than it saved).
func (c *Cluster) wakeFromIdle() {
	if c.idleState < 0 {
		return
	}
	now := c.eng.Now()
	st := c.idle[c.idleState]
	gap := now.Sub(c.idleSince)
	c.idleRes[c.idleState] += gap
	c.idleWakes++
	if gap < st.EntryLatency+st.ExitLatency {
		c.idleMispred++
	}
	c.idlePred = gap
	c.idleState = -1
	if st.ExitLatency > 0 {
		c.waking = true
		c.stallSince = now
		c.wakeUntil = now.Add(st.ExitLatency)
	}
}

// enterIdle starts a residency in the deepest state whose entry+exit
// latency fits the predicted idle gap — cpuidle's menu-governor selection
// with the last observed gap as the prediction. The shallowest state always
// fits (there is nothing cheaper to fall back to).
func (c *Cluster) enterIdle(now sim.Time) {
	k := 0
	for j := 1; j < len(c.idle); j++ {
		if c.idle[j].EntryLatency+c.idle[j].ExitLatency > c.idlePred {
			break
		}
		k = j
	}
	c.idleState = k
	c.idleSince = now
}

// idleTransition closes the active window and, with nothing left to run,
// enters an idle state. No-op while the ladder is disabled.
func (c *Cluster) idleTransition(now sim.Time) {
	if c.idle == nil {
		return
	}
	if c.activeOpen {
		c.activeWall += now.Sub(c.activeSince)
		c.activeOpen = false
	}
	if c.idleState < 0 {
		c.enterIdle(now)
	}
}

// markActive opens the active wall-clock window (>=1 running task). No-op
// while the ladder is disabled.
func (c *Cluster) markActive(now sim.Time) {
	if c.idle == nil || c.activeOpen {
		return
	}
	c.activeOpen = true
	c.activeSince = now
}

// Cancel removes a task from the cluster. A running task is stopped with its
// work unfinished; its onDone callback never fires. A stale handle — its
// pooled Task already recycled for a newer burst — is a no-op.
func (c *Cluster) Cancel(h Handle) {
	if !h.ok() || h.t.done || h.t.cancelled {
		return
	}
	c.cancelTask(h.t)
}

// cancelTask is the generation-checked core of Cancel. A pending zero-cycle
// task (owner nil) is only flagged; its completion event discards it and
// drains it back to the pool.
func (c *Cluster) cancelTask(t *Task) {
	t.cancelled = true
	if t.owner == nil {
		return
	}
	t.owner = nil
	c.settle()
	if !c.removeRunning(t) {
		for i, q := range c.runq {
			if q == t {
				c.runq = append(c.runq[:i], c.runq[i+1:]...)
				break
			}
		}
	}
	c.reschedule()
	c.pool.put(t)
}

// removeRunning takes t off its core slot, reporting whether it was running.
func (c *Cluster) removeRunning(t *Task) bool {
	for i, r := range c.running {
		if r == t {
			c.dropRunning(i)
			return true
		}
	}
	return false
}

// dropRunning removes running-slot i and frees its core.
func (c *Cluster) dropRunning(i int) {
	c.coreUsed[c.coreOf[i]] = false
	c.running = append(c.running[:i], c.running[i+1:]...)
	c.sliceEnds = append(c.sliceEnds[:i], c.sliceEnds[i+1:]...)
	c.coreOf = append(c.coreOf[:i], c.coreOf[i+1:]...)
}

// freeCore returns the lowest unoccupied core slot.
func (c *Cluster) freeCore() int {
	for i, used := range c.coreUsed {
		if !used {
			return i
		}
	}
	return 0 // unreachable: dispatch only runs with a free slot
}

// stealQueued removes and returns the oldest migratable queued task, or nil.
// It settles first: reschedule recomputes completion events from
// task.remaining, which is only current after in-flight execution has been
// attributed.
func (c *Cluster) stealQueued() *Task {
	for i, t := range c.runq {
		if t.affinity != AnyCluster {
			continue
		}
		c.settle()
		c.runq = append(c.runq[:i], c.runq[i+1:]...)
		c.reschedule()
		return t
	}
	return nil
}

// StartBusyGrid begins (or restarts) busy-grid sampling with the given
// period, reusing scratch as the sample buffer. The first sample lands on
// virtual time zero; the device's Seal calls this right after it rewound the
// engine and reset the SoC.
func (c *Cluster) StartBusyGrid(step sim.Duration, scratch []sim.Duration) {
	c.gridStep = step
	c.gridNext = 0
	c.grid = scratch[:0]
}

// FinishBusyGrid settles, extends the grid through until (exclusive of any
// later instants) and returns the samples. The slice is owned by the cluster
// until the next StartBusyGrid; callers that retain it must hand a fresh
// scratch to the next run.
// ReserveBusyGrid grows the lazily filled busy grid's capacity so a full run
// window of samples appends without reallocating. No-op unless a grid is
// active.
func (c *Cluster) ReserveBusyGrid(n int) {
	if c.gridStep > 0 && cap(c.grid) < n {
		grown := make([]sim.Duration, len(c.grid), n)
		copy(grown, c.grid)
		c.grid = grown
	}
}

func (c *Cluster) FinishBusyGrid(until sim.Time) []sim.Duration {
	c.settle()
	if c.gridStep > 0 {
		c.fillGrid(until)
	}
	return c.grid
}

// fillGrid appends one sample per grid instant in (lastFilled, now]. Between
// settle points cumBusy accrues at exactly len(running) core-seconds per
// wall second, so the reconstruction matches what a sampler calling
// CumulativeBusy at each instant would have read, bit for bit.
func (c *Cluster) fillGrid(now sim.Time) {
	rate := sim.Duration(len(c.running))
	for c.gridNext <= now {
		c.grid = append(c.grid, c.cumBusy+rate*sim.Duration(c.gridNext.Sub(c.lastSettle)))
		c.gridNext = c.gridNext.Add(c.gridStep)
	}
}

// settle attributes execution since lastSettle to the running tasks and OPP.
func (c *Cluster) settle() {
	now := c.eng.Now()
	if c.gridStep > 0 && c.gridNext <= now {
		c.fillGrid(now)
	}
	if len(c.running) == 0 {
		c.lastSettle = now
		return
	}
	elapsed := now.Sub(c.lastSettle)
	if elapsed <= 0 {
		return
	}
	for i, t := range c.running {
		consumed := Cycles(int64(elapsed) * int64(c.tbl[c.oppIdx].KHz) / 1000)
		if consumed > t.remaining {
			consumed = t.remaining
		}
		t.remaining -= consumed
		c.cumBusy += elapsed
		c.coreBusy[c.coreOf[i]] += elapsed
		c.busyByOPP[c.oppIdx] += elapsed
	}
	c.lastSettle = now
}

// completionIn returns the time needed to finish task t at the current
// frequency, rounded up to whole microseconds.
func (c *Cluster) completionIn(t *Task) sim.Duration {
	khz := int64(c.tbl[c.oppIdx].KHz)
	rem := int64(t.remaining)
	return sim.Duration((rem*1000 + khz - 1) / khz)
}

// reschedule re-arms the next execution event (earliest task completion or
// slice expiry), dispatching queued tasks onto free core slots.
func (c *Cluster) reschedule() {
	if c.havePending {
		c.eng.Cancel(c.pending)
		c.havePending = false
	}
	now := c.eng.Now()
	if c.waking {
		if now < c.wakeUntil {
			// Dispatch is blocked until the wake transition completes; the
			// pending event resumes execution (or re-enters idle if the
			// queued work was cancelled meanwhile). No busy time accrues
			// here, so governors never read the stall as demand.
			c.pending = c.eng.AtFunc(c.wakeUntil, c.execCb)
			c.havePending = true
			c.lastSettle = now
			return
		}
		c.stallTime += now.Sub(c.stallSince)
		c.waking = false
	}
	// Fill idle cores from the run queue, lowest free core slot first. The
	// queue head is shifted out in place: re-slicing with runq[1:] walks
	// the slice base forward, so once the queue drains to len 0 its spare
	// capacity is gone and the next enqueue reallocates — one allocation
	// per dispatch cycle in steady state — and dequeued tasks stay pinned
	// in the underlying array. The copy is O(len(runq)), which stays cheap
	// because interactive run queues are at most a handful of tasks deep.
	for len(c.running) < c.nCores && len(c.runq) > 0 {
		t := c.runq[0]
		copy(c.runq, c.runq[1:])
		c.runq[len(c.runq)-1] = nil
		c.runq = c.runq[:len(c.runq)-1]
		core := c.freeCore()
		c.coreUsed[core] = true
		c.running = append(c.running, t)
		c.sliceEnds = append(c.sliceEnds, now.Add(TimeSlice))
		c.coreOf = append(c.coreOf, core)
	}
	if len(c.running) == 0 {
		c.lastSettle = now
		c.idleTransition(now)
		return
	}
	c.markActive(now)
	// Finished tasks (zero remaining after a settle) complete immediately.
	for _, t := range c.running {
		if t.remaining <= 0 {
			c.finish(t)
			return
		}
	}
	next := now.Add(c.completionIn(c.running[0]))
	for _, t := range c.running[1:] {
		if at := now.Add(c.completionIn(t)); at < next {
			next = at
		}
	}
	if len(c.runq) > 0 {
		for _, se := range c.sliceEnds {
			if se < next {
				next = se
			}
		}
	}
	c.pending = c.eng.AtFunc(next, c.execCb)
	c.havePending = true
}

func (c *Cluster) onExecEvent() {
	c.settle()
	now := c.eng.Now()
	for _, t := range c.running {
		if t.remaining <= 0 {
			c.finish(t)
			return
		}
	}
	// Slice expiry: round-robin rotation of expired cores while others wait.
	for i := 0; i < len(c.running); {
		if now >= c.sliceEnds[i] && len(c.runq) > 0 {
			t := c.running[i]
			c.dropRunning(i)
			c.runq = append(c.runq, t)
			continue
		}
		if now >= c.sliceEnds[i] {
			c.sliceEnds[i] = now.Add(TimeSlice)
		}
		i++
	}
	c.reschedule()
}

// finish completes one running task and re-arms execution. onDone runs after
// the task is removed, so it may submit follow-up work; the task drains back
// to the pool last, so everything observing the completion sees it done under
// its issued generation.
func (c *Cluster) finish(t *Task) {
	c.removeRunning(t)
	t.done = true
	t.owner = nil
	if t.onDone != nil {
		t.onDone(c.eng.Now())
	}
	c.reschedule()
	if c.onIdleCore != nil && c.FreeCores() > 0 {
		c.onIdleCore()
	}
	c.pool.put(t)
}

// IdleEnabled reports whether this cluster has a C-state ladder.
func (c *Cluster) IdleEnabled() bool { return c.idle != nil }

// IdleStates returns the C-state ladder, shallow to deep (nil when the idle
// subsystem is disabled). Callers must not mutate it.
func (c *Cluster) IdleStates() []IdleState { return c.idle }

// syncIdleClocks closes the open idle/stall/active window at the current
// virtual time, so the residency counters are exact at read time.
func (c *Cluster) syncIdleClocks() {
	if c.idle == nil {
		return
	}
	now := c.eng.Now()
	if c.idleState >= 0 {
		c.idleRes[c.idleState] += now.Sub(c.idleSince)
		c.idleSince = now
	}
	if c.waking {
		c.stallTime += now.Sub(c.stallSince)
		c.stallSince = now
	}
	if c.activeOpen {
		c.activeWall += now.Sub(c.activeSince)
		c.activeSince = now
	}
}

// CopyIdleResidency copies the per-state idle residency into dst
// (reallocated if too small) and returns it, one entry per ladder state in
// shallow-to-deep order. Empty when the ladder is disabled.
func (c *Cluster) CopyIdleResidency(dst []sim.Duration) []sim.Duration {
	c.syncIdleClocks()
	if cap(dst) < len(c.idleRes) {
		dst = make([]sim.Duration, len(c.idleRes))
	}
	dst = dst[:len(c.idleRes)]
	copy(dst, c.idleRes)
	return dst
}

// IdleWakes returns how many times work arrival ended an idle residency.
func (c *Cluster) IdleWakes() int { return c.idleWakes }

// IdleMispredicts returns how many wakes cut a residency shorter than the
// chosen state's entry+exit latency — sleeps that cost more than they saved.
func (c *Cluster) IdleMispredicts() int { return c.idleMispred }

// IdleStallTime returns total wall time spent in exit-latency wake stalls.
func (c *Cluster) IdleStallTime() sim.Duration {
	c.syncIdleClocks()
	return c.stallTime
}

// ActiveWallTime returns total wall time with at least one running task.
// Only tracked while the idle ladder is enabled; with it, active + stall +
// idle residencies account for every instant of cluster wall time.
func (c *Cluster) ActiveWallTime() sim.Duration {
	c.syncIdleClocks()
	return c.activeWall
}

// IdleTime returns total core-idle time since boot (wall clock times cores,
// minus busy core-time).
func (c *Cluster) IdleTime() sim.Duration {
	c.settle()
	return sim.Duration(int64(c.eng.Now().Sub(0))*int64(c.nCores)) - c.cumBusy
}

// String summarises cluster state.
func (c *Cluster) String() string {
	return fmt.Sprintf("soc.Cluster{%s, %s, busy=%d/%d, runq=%d}",
		c.name, c.tbl[c.oppIdx].Label(), len(c.running), c.nCores, len(c.runq))
}
