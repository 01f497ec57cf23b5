package soc

import "repro/internal/sim"

// Handle identifies a submitted task without owning it. Tasks are pooled:
// the cluster owns a task from Submit until it completes or is cancelled,
// at which point it drains back to the pool and may be recycled for a later
// burst. A Handle carries the generation the task had when it was issued,
// so a stale handle — one whose task has since been recycled — can never
// cancel or inspect an unrelated burst. The zero Handle refers to no task.
type Handle struct {
	t   *Task
	gen uint32
}

// ok reports whether the handle still refers to the burst it was issued for.
func (h Handle) ok() bool { return h.t != nil && h.t.gen == h.gen }

// Done reports whether the burst finished executing. A stale handle (its
// task slot has been recycled for a newer burst) reports true: the burst it
// referred to is long retired. A cancelled burst still covered by its
// generation reports false — cancellation is not completion.
func (h Handle) Done() bool {
	if h.ok() {
		return h.t.done
	}
	return h.t != nil
}

// Remaining returns the cycles the burst still needs, or 0 for a stale or
// zero handle.
func (h Handle) Remaining() Cycles {
	if h.ok() {
		return h.t.remaining
	}
	return 0
}

// Affinity returns the cluster index the burst is pinned to, or AnyCluster;
// stale and zero handles report AnyCluster.
func (h Handle) Affinity() int {
	if h.ok() {
		return h.t.affinity
	}
	return AnyCluster
}

// taskPool recycles Task objects so warm submit/complete cycles allocate
// nothing. It tracks every task it ever created (all) so SoC.Reset, which
// returns to the boot instant with no live task, can free them all.
type taskPool struct {
	free []*Task
	all  []*Task
}

// get returns a reset task under a fresh generation.
func (p *taskPool) get() *Task {
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		t.gen++
		t.remaining = 0
		t.onDone = nil
		t.cancelled = false
		t.done = false
		t.owner = nil
		return t
	}
	t := &Task{gen: 1}
	p.all = append(p.all, t)
	return t
}

// put drains a retired task back to the pool. Its generation is bumped on
// the next get, so handles issued for this life stay readable until the
// slot is actually reused.
func (p *taskPool) put(t *Task) {
	t.onDone = nil // don't pin the completion closure while pooled
	p.free = append(p.free, t)
}

// freeAll makes every task the pool ever created free again, in creation
// order, dropping whatever was live.
func (p *taskPool) freeAll() {
	p.free = p.free[:0]
	for _, t := range p.all {
		t.onDone = nil
		p.free = append(p.free, t)
	}
}

// zeroQ completes zero-cycle tasks through the event queue, preserving the
// original one-event-per-task FIFO ordering (so callback order relative to
// other same-instant events is unchanged) while using a single pre-bound
// callback — no closure per task, no allocation on the warm path.
type zeroQ struct {
	eng  *sim.Engine
	pool *taskPool
	q    []*Task
	cb   func()
}

func newZeroQ(eng *sim.Engine, pool *taskPool) *zeroQ {
	z := &zeroQ{eng: eng, pool: pool}
	z.cb = z.completeOne
	return z
}

// push admits a zero-cycle task: one completion event per task, scheduled at
// the current instant, exactly as the per-task closures used to be.
func (z *zeroQ) push(t *Task) {
	z.q = append(z.q, t)
	z.eng.AfterFunc(0, z.cb)
}

// completeOne finishes the oldest pending zero-cycle task, honouring a
// Cancel that landed before its completion event ran, and drains it back to
// the pool.
func (z *zeroQ) completeOne() {
	t := z.q[0]
	copy(z.q, z.q[1:])
	z.q[len(z.q)-1] = nil
	z.q = z.q[:len(z.q)-1]
	if !t.cancelled {
		t.done = true
		if t.onDone != nil {
			t.onDone(z.eng.Now())
		}
	}
	z.pool.put(t)
}
