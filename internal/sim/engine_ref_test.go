package sim

import (
	"math/rand"
	"testing"
)

// engineModel is what the randomised test below sees of an event engine.
// Events are named by handle: the k-th event scheduled has handle k, which
// is also its callback id.
type engineModel interface {
	schedule(kind int, off Duration) // kind: 0 At, 1 AtFunc, 2 After, 3 AfterFunc
	cancel(k int) bool               // k < 0 cancels the zero EventID
	runUntil(deadline Time)
	run()
	stop()
	snapshot()
	restore()
	now() Time
	pending() int
	handles() int
	record(r traceRec)
}

// traceRec is one observable effect: an event dispatched (ok false) or a
// Cancel (ok is its result).
type traceRec struct {
	cancel bool
	k      int
	t      Time
	ok     bool
}

// fire is every event's callback. It records the dispatch, then does what
// the handle's hash says: schedule a child (past, same-instant or future),
// cancel some earlier handle (live, fired or cancelled), or Stop the run.
// Children arrive with probability 1/4, so every Run drains.
func fire(m engineModel, salt uint64, k int) {
	m.record(traceRec{k: k, t: m.now()})
	h := mix64(uint64(k) ^ salt)
	if h%4 == 0 {
		m.schedule(int(h>>8%4), Duration(int64(h>>16%50)-5))
	}
	if h>>24%8 == 0 {
		c := int(h >> 32 % uint64(m.handles()))
		m.record(traceRec{cancel: true, k: c, ok: m.cancel(c)})
	}
	if h>>40%64 == 0 {
		m.stop()
	}
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// engineUnderTest drives the real engine.
type engineUnderTest struct {
	e           *Engine
	salt        uint64
	ids         []EventID
	trace       []traceRec
	snap        EngineSnap
	snapHandles int
}

func (m *engineUnderTest) schedule(kind int, off Duration) {
	k := len(m.ids)
	fn := func(*Engine) { fire(m, m.salt, k) }
	fn0 := func() { fire(m, m.salt, k) }
	var id EventID
	switch kind {
	case 0:
		id = m.e.At(m.e.Now().Add(off), fn)
	case 1:
		id = m.e.AtFunc(m.e.Now().Add(off), fn0)
	case 2:
		id = m.e.After(off, fn)
	default:
		id = m.e.AfterFunc(off, fn0)
	}
	m.ids = append(m.ids, id)
}

func (m *engineUnderTest) cancel(k int) bool {
	if k < 0 {
		return m.e.Cancel(0)
	}
	return m.e.Cancel(m.ids[k])
}

func (m *engineUnderTest) runUntil(d Time)       { m.e.RunUntil(d) }
func (m *engineUnderTest) run()                  { m.e.Run() }
func (m *engineUnderTest) stop()                 { m.e.Stop() }
func (m *engineUnderTest) now() Time             { return m.e.Now() }
func (m *engineUnderTest) pending() int          { return m.e.Pending() }
func (m *engineUnderTest) handles() int          { return len(m.ids) }
func (m *engineUnderTest) record(r traceRec)     { m.trace = append(m.trace, r) }
func (m *engineUnderTest) snapshot()             { m.e.Snapshot(&m.snap); m.snapHandles = len(m.ids) }
func (m *engineUnderTest) restore()              { m.e.Restore(&m.snap); m.ids = m.ids[:m.snapHandles] }
func (m *engineUnderTest) takeTrace() []traceRec { t := m.trace; m.trace = nil; return t }

// refEngine is the reference: pending events in a plain slice, the next one
// found by a linear scan for the minimum (at, seq). It shares nothing with
// the engine but the documented semantics: past timestamps clamp to now,
// equal timestamps dispatch FIFO, RunUntil leaves the clock at its deadline,
// and Stop ends the current run after the in-flight callback.
type refEngine struct {
	salt    uint64
	t       Time
	nextSeq uint64
	queue   []refEvent
	live    []bool // live[k]: handle k is scheduled
	stopped bool
	trace   []traceRec
	saved   *refEngine
}

type refEvent struct {
	at  Time
	seq uint64
	k   int
}

func (r *refEngine) schedule(_ int, off Duration) {
	at := r.t.Add(off)
	if at < r.t {
		at = r.t
	}
	r.queue = append(r.queue, refEvent{at: at, seq: r.nextSeq, k: len(r.live)})
	r.nextSeq++
	r.live = append(r.live, true)
}

func (r *refEngine) cancel(k int) bool {
	if k < 0 || !r.live[k] {
		return false
	}
	for i, ev := range r.queue {
		if ev.k == k {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			r.live[k] = false
			return true
		}
	}
	panic("live handle missing from the reference queue")
}

// next returns the index of the minimum (at, seq) event, or -1.
func (r *refEngine) next() int {
	best := -1
	for i, ev := range r.queue {
		if best < 0 || ev.at < r.queue[best].at ||
			ev.at == r.queue[best].at && ev.seq < r.queue[best].seq {
			best = i
		}
	}
	return best
}

func (r *refEngine) dispatch(i int) {
	ev := r.queue[i]
	r.queue = append(r.queue[:i], r.queue[i+1:]...)
	r.live[ev.k] = false
	if ev.at > r.t {
		r.t = ev.at
	}
	fire(r, r.salt, ev.k)
}

func (r *refEngine) runUntil(deadline Time) {
	r.stopped = false
	for !r.stopped {
		i := r.next()
		if i < 0 || r.queue[i].at > deadline {
			break
		}
		r.dispatch(i)
	}
	if r.t < deadline {
		r.t = deadline
	}
}

func (r *refEngine) run() {
	r.stopped = false
	for !r.stopped {
		i := r.next()
		if i < 0 {
			break
		}
		r.dispatch(i)
	}
}

func (r *refEngine) snapshot() {
	r.saved = &refEngine{
		t:       r.t,
		nextSeq: r.nextSeq,
		queue:   append([]refEvent(nil), r.queue...),
		live:    append([]bool(nil), r.live...),
	}
}

func (r *refEngine) restore() {
	s := r.saved
	r.t, r.nextSeq, r.stopped = s.t, s.nextSeq, false
	r.queue = append(r.queue[:0], s.queue...)
	r.live = append(r.live[:0], s.live...)
}

func (r *refEngine) stop()                 { r.stopped = true }
func (r *refEngine) now() Time             { return r.t }
func (r *refEngine) pending() int          { return len(r.queue) }
func (r *refEngine) handles() int          { return len(r.live) }
func (r *refEngine) record(rec traceRec)   { r.trace = append(r.trace, rec) }
func (r *refEngine) takeTrace() []traceRec { t := r.trace; r.trace = nil; return t }

// TestEngineMatchesReference drives the engine and the reference through the
// same seeded random operations — At, AtFunc, After and AfterFunc with past,
// same-instant and future times, nested scheduling from callbacks, valid,
// stale, double and zero Cancels, RunUntil with random deadlines, Run, Stop,
// and Snapshot/Restore mid-sequence — at queue depths from 0 to about 2,000.
// Dispatch traces (callback id, clock), Cancel results, the clock and
// Pending must agree after every operation.
func TestEngineMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		salt := uint64(seed) * 0x2545f4914f6cdd1d
		eng := &engineUnderTest{e: NewEngine(), salt: salt}
		ref := &refEngine{salt: salt}
		models := []engineModel{eng, ref}
		target, maxDepth, empties, saved := 0, 0, 0, false
		for op := 0; op < 5_000; op++ {
			if op%500 == 0 {
				target = []int{0, 10, 100, 2000}[rng.Intn(4)]
			}
			depth := ref.pending()
			spread := 60 + target/4
			var apply func(m engineModel)
			switch r := rng.Intn(100); {
			case depth < target && r < 30:
				// Grow toward the target depth in a burst.
				n := 1 + rng.Intn(min(target-depth, 200))
				kinds, offs := make([]int, n), make([]Duration, n)
				for i := range kinds {
					kinds[i], offs[i] = rng.Intn(4), Duration(rng.Intn(spread)-5)
				}
				apply = func(m engineModel) {
					for i := range kinds {
						m.schedule(kinds[i], offs[i])
					}
				}
			case r < 55:
				kind, off := rng.Intn(4), Duration(rng.Intn(spread)-5)
				apply = func(m engineModel) { m.schedule(kind, off) }
			case r < 75:
				// Half the cancels aim at recent handles, which are most
				// likely live; the rest hit fired, cancelled or zero ones.
				k := rng.Intn(ref.handles()+1) - 1
				if n := ref.handles(); rng.Intn(2) == 0 && n > 0 {
					k = n - 1 - rng.Intn(min(n, 16))
				}
				apply = func(m engineModel) { m.record(traceRec{cancel: true, k: k, ok: m.cancel(k)}) }
			case r < 93 && depth > target:
				d := Duration(rng.Intn(40 + spread))
				apply = func(m engineModel) { m.runUntil(m.now().Add(d)) }
			case r < 93:
				d := Duration(rng.Intn(40) - 10)
				apply = func(m engineModel) { m.runUntil(m.now().Add(d)) }
			case r < 95:
				if target > 10 {
					continue
				}
				apply = func(m engineModel) { m.run() }
			case r < 96:
				apply = func(m engineModel) { m.stop() }
			case r < 98:
				saved = true
				apply = func(m engineModel) { m.snapshot() }
			default:
				if !saved {
					continue
				}
				apply = func(m engineModel) { m.restore() }
			}
			for _, m := range models {
				apply(m)
			}
			got, want := eng.takeTrace(), ref.takeTrace()
			if len(got) != len(want) {
				t.Fatalf("seed %d op %d: engine traced %d effects, reference %d", seed, op, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d op %d: effect %d is %+v, reference %+v", seed, op, i, got[i], want[i])
				}
			}
			if eng.now() != ref.now() || eng.pending() != ref.pending() {
				t.Fatalf("seed %d op %d: now %v pending %d, reference now %v pending %d",
					seed, op, eng.now(), eng.pending(), ref.now(), ref.pending())
			}
			maxDepth = max(maxDepth, ref.pending())
			if ref.pending() == 0 {
				empties++
			}
		}
		if maxDepth < 1500 || empties == 0 {
			t.Fatalf("seed %d: queue depth reached %d and was empty after %d ops; want ~2000 and some", seed, maxDepth, empties)
		}
	}
}
