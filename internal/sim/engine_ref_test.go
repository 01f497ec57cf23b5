package sim

import (
	"math/rand"
	"testing"
)

// engineModel is what the randomised test below sees of an event engine.
// Events are named by handle: the k-th event scheduled has handle k, which
// is also its callback id.
type engineModel interface {
	schedule(kind int, off Duration) // kind: 0 or 1 AtFunc, 2 or 3 AfterFunc
	cancel(k int) bool               // k < 0 cancels the zero EventID
	quiet(k int, period Duration) bool
	wake(k int) (Time, bool)
	runUntil(deadline Time)
	run() // callbacks quiet nothing during a Run, so it drains
	draining() bool
	stop()
	reset()
	now() Time
	pending() int
	handles() int
	record(r traceRec)
}

// traceRec is one observable effect: an event dispatched, or the result of
// a Cancel, Quiet or Wake (ok, and for Wake the due instant t).
type traceRec struct {
	op int // opFire, opCancel, opQuiet or opWake
	k  int
	t  Time
	ok bool
}

const (
	opFire = iota
	opCancel
	opQuiet
	opWake
)

// fire is every event's callback. It records the dispatch, then does what
// the handle's hash says: schedule a child (past, same-instant or future),
// quiet that child, cancel or wake some earlier handle (live, quiet, fired
// or cancelled), or Stop the run. Children arrive with probability 1/4, so
// every Run drains once no quiet event is left.
func fire(m engineModel, salt uint64, k int) {
	m.record(traceRec{k: k, t: m.now()})
	h := mix64(uint64(k) ^ salt)
	if h%4 == 0 {
		m.schedule(int(h>>8%4), Duration(int64(h>>16%50)-5))
		if h>>56%4 == 0 && !m.draining() {
			doQuiet(m, m.handles()-1, Duration(h>>58%32))
		}
	}
	if h>>24%8 == 0 {
		c := int(h >> 32 % uint64(m.handles()))
		m.record(traceRec{op: opCancel, k: c, ok: m.cancel(c)})
	}
	if h>>40%64 == 0 {
		m.stop()
	}
	if h>>46%16 == 0 {
		doWake(m, int(h>>50%uint64(m.handles())))
	}
}

// doQuiet and doWake apply one Quiet or Wake to a model and record it.
func doQuiet(m engineModel, k int, period Duration) {
	m.record(traceRec{op: opQuiet, k: k, t: Time(period), ok: m.quiet(k, period)})
}

func doWake(m engineModel, k int) {
	due, ok := m.wake(k)
	m.record(traceRec{op: opWake, k: k, t: due, ok: ok})
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// engineUnderTest drives the real engine.
type engineUnderTest struct {
	e     *Engine
	salt  uint64
	ids   []EventID
	inRun bool
	trace []traceRec
}

func (m *engineUnderTest) schedule(kind int, off Duration) {
	k := len(m.ids)
	fn := func() { fire(m, m.salt, k) }
	var id EventID
	if kind < 2 {
		id = m.e.AtFunc(m.e.Now().Add(off), fn)
	} else {
		id = m.e.AfterFunc(off, fn)
	}
	m.ids = append(m.ids, id)
}

func (m *engineUnderTest) cancel(k int) bool {
	if k < 0 {
		return m.e.Cancel(0)
	}
	return m.e.Cancel(m.ids[k])
}

func (m *engineUnderTest) quiet(k int, period Duration) bool {
	if k < 0 {
		return m.e.Quiet(0, period)
	}
	return m.e.Quiet(m.ids[k], period)
}

func (m *engineUnderTest) wake(k int) (Time, bool) {
	if k < 0 {
		return m.e.Wake(0)
	}
	return m.e.Wake(m.ids[k])
}

func (m *engineUnderTest) runUntil(d Time)       { m.e.RunUntil(d) }
func (m *engineUnderTest) run()                  { m.inRun = true; m.e.Run(); m.inRun = false }
func (m *engineUnderTest) draining() bool        { return m.inRun }
func (m *engineUnderTest) stop()                 { m.e.Stop() }
func (m *engineUnderTest) now() Time             { return m.e.Now() }
func (m *engineUnderTest) pending() int          { return m.e.Pending() }
func (m *engineUnderTest) handles() int          { return len(m.ids) }
func (m *engineUnderTest) record(r traceRec)     { m.trace = append(m.trace, r) }
func (m *engineUnderTest) reset()                { m.e.Reset() }
func (m *engineUnderTest) takeTrace() []traceRec { t := m.trace; m.trace = nil; return t }

// refEngine is the reference: pending events in a plain slice, the next one
// found by a linear scan for the minimum (at, seq). It shares nothing with
// the engine but the documented semantics: past timestamps clamp to now,
// equal timestamps dispatch FIFO, RunUntil leaves the clock at its deadline,
// and Stop ends the current run after the in-flight callback. A quiet event
// is one whose callback records nothing and re-arms its own handle with
// AfterFunc(period).
type refEngine struct {
	salt    uint64
	t       Time
	nextSeq uint64
	queue   []refEvent
	live    []bool     // live[k]: handle k is scheduled
	period  []Duration // period[k] > 0: live handle k is quiet
	passes  int        // quiet dispatches so far
	ran     uint64     // callbacks run since the last reset
	passed  uint64     // quiet dispatches since the last reset
	inRun   bool
	stopped bool
	trace   []traceRec
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
	r.period = append(r.period, 0)
}

func (r *refEngine) cancel(k int) bool {
	if k < 0 || !r.live[k] {
		return false
	}
	i := r.index(k)
	r.queue = append(r.queue[:i], r.queue[i+1:]...)
	r.live[k], r.period[k] = false, 0
	return true
}

func (r *refEngine) quiet(k int, period Duration) bool {
	if k < 0 || !r.live[k] || period <= 0 {
		return false
	}
	r.period[k] = period
	return true
}

func (r *refEngine) wake(k int) (Time, bool) {
	if k < 0 || !r.live[k] || r.period[k] == 0 {
		return 0, false
	}
	r.period[k] = 0
	return r.queue[r.index(k)].at, true
}

// due returns the instant live handle k is queued for.
func (r *refEngine) due(k int) Time { return r.queue[r.index(k)].at }

// index returns the queue position of live handle k.
func (r *refEngine) index(k int) int {
	for i, ev := range r.queue {
		if ev.k == k {
			return i
		}
	}
	panic("live handle missing from the reference queue")
}

// quietPending reports whether any live handle is quiet.
func (r *refEngine) quietPending() bool { return len(r.quietHandles()) > 0 }

// quietHandles returns the live quiet handles in ascending order.
func (r *refEngine) quietHandles() []int {
	var qs []int
	for k, p := range r.period {
		if p > 0 && r.live[k] {
			qs = append(qs, k)
		}
	}
	return qs
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
	if ev.at > r.t {
		r.t = ev.at
	}
	if p := r.period[ev.k]; p > 0 {
		// The quiet callback: re-arm the same handle, record nothing.
		r.queue = append(r.queue, refEvent{at: r.t.Add(p), seq: r.nextSeq, k: ev.k})
		r.nextSeq++
		r.passes++
		r.passed++
		return
	}
	r.ran++
	r.live[ev.k] = false
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

func (r *refEngine) draining() bool { return r.inRun }

func (r *refEngine) run() {
	r.inRun = true
	defer func() { r.inRun = false }()
	r.stopped = false
	for !r.stopped {
		i := r.next()
		if i < 0 {
			break
		}
		r.dispatch(i)
	}
}

// reset empties the queue and rewinds the clock, sequence numbers and
// counts to zero. Handles issued before it stay dead: cancelling one
// returns false.
func (r *refEngine) reset() {
	r.t, r.nextSeq, r.stopped = 0, 0, false
	r.ran, r.passed = 0, 0
	r.queue = r.queue[:0]
	clear(r.live)
	clear(r.period)
}

func (r *refEngine) stop()                 { r.stopped = true }
func (r *refEngine) now() Time             { return r.t }
func (r *refEngine) pending() int          { return len(r.queue) }
func (r *refEngine) handles() int          { return len(r.live) }
func (r *refEngine) record(rec traceRec)   { r.trace = append(r.trace, rec) }
func (r *refEngine) takeTrace() []traceRec { t := r.trace; r.trace = nil; return t }

// refStats is what one reference run exercised: the deepest queue, how
// often it drained, how many Quiet and Wake calls succeeded, how many quiet
// events were passed and how many Runs drained the queue.
type refStats struct {
	maxDepth, empties, quiets, wakes, passes, runs int
}

// matchReference drives the engine and the reference through the same
// random operations drawn from seed — AtFunc and AfterFunc with past,
// same-instant and future times, nested scheduling from callbacks, valid,
// stale, double and zero Cancels, Quiet with valid and invalid periods on
// live, quiet, fired and cancelled handles, Wake from outside and inside
// callbacks, Cancel of quiet events, RunUntil with random deadlines, Run,
// Stop, and Reset mid-sequence, after which no earlier handle may cancel,
// quiet or wake anything — at queue depths from 0 to about 2,000.
// Dispatch traces (callback id, clock), Cancel, Quiet and Wake results, the
// clock, Pending and the run and passed counts must agree after every
// operation.
func matchReference(t *testing.T, seed int64) refStats {
	rng := rand.New(rand.NewSource(seed))
	salt := uint64(seed) * 0x2545f4914f6cdd1d
	eng := &engineUnderTest{e: NewEngine(), salt: salt}
	ref := &refEngine{salt: salt}
	models := []engineModel{eng, ref}
	var st refStats
	target := 0
	// recent picks a handle: mostly a recent one, which is most likely
	// live, else any issued one or the zero EventID.
	recent := func() int {
		k := rng.Intn(ref.handles()+1) - 1
		if n := ref.handles(); rng.Intn(2) == 0 && n > 0 {
			k = n - 1 - rng.Intn(min(n, 16))
		}
		return k
	}
	for op := 0; op < 5_000; op++ {
		if op%500 == 0 {
			target = []int{0, 10, 100, 2000}[(op/500+int(uint64(seed)%4))%4]
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
		case r < 66:
			// Half the cancels aim at recent handles, which are most
			// likely live; the rest hit fired, cancelled or zero ones.
			k := recent()
			apply = func(m engineModel) { m.record(traceRec{op: opCancel, k: k, ok: m.cancel(k)}) }
		case r < 73 && rng.Intn(3) == 0:
			// Quiet the next live event k on a quiet event j's grid, a
			// period or more ahead of j, run past k and wake both. The
			// bulk pass that passes k passes j more often, both last pass
			// at one instant, and the order the pass gave them shows when
			// they run.
			i, qs := ref.next(), ref.quietHandles()
			if i < 0 || len(qs) == 0 {
				continue
			}
			k, j := ref.queue[i].k, qs[rng.Intn(len(qs))]
			gap := ref.due(k).Sub(ref.due(j))
			if ref.period[k] > 0 || gap <= 0 {
				continue
			}
			period := max(gap/Duration(1+rng.Intn(3)), 1)
			deadline := ref.due(k).Add(Duration(rng.Intn(int(period))))
			apply = func(m engineModel) {
				doQuiet(m, j, period)
				doQuiet(m, k, period)
				m.runUntil(deadline)
				doWake(m, j)
				doWake(m, k)
			}
		case r < 73:
			// Periods from 0 (refused) to past the spread of offsets.
			k, period := recent(), Duration(rng.Intn(80))
			apply = func(m engineModel) { doQuiet(m, k, period) }
		case r < 76 && rng.Intn(4) == 0:
			// Wake every quiet event at once: events that tie on an
			// instant then run in the order the passes left them.
			qs := ref.quietHandles()
			apply = func(m engineModel) {
				for _, k := range qs {
					doWake(m, k)
				}
			}
		case r < 76:
			// Most wakes aim at a quiet event.
			k := recent()
			if qs := ref.quietHandles(); len(qs) > 0 && rng.Intn(4) != 0 {
				k = qs[rng.Intn(len(qs))]
			}
			apply = func(m engineModel) { doWake(m, k) }
		case r < 93 && depth > target:
			d := Duration(rng.Intn(40 + spread))
			apply = func(m engineModel) { m.runUntil(m.now().Add(d)) }
		case r < 93:
			d := Duration(rng.Intn(40) - 10)
			apply = func(m engineModel) { m.runUntil(m.now().Add(d)) }
		case r < 95:
			// Run drains the queue only when no quiet event re-arms.
			if target > 10 || ref.quietPending() {
				continue
			}
			st.runs++
			apply = func(m engineModel) { m.run() }
		case r < 96:
			apply = func(m engineModel) { m.stop() }
		default:
			apply = func(m engineModel) { m.reset() }
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
			if got[i].ok && got[i].op == opQuiet {
				st.quiets++
			}
			if got[i].ok && got[i].op == opWake {
				st.wakes++
			}
		}
		if eng.now() != ref.now() || eng.pending() != ref.pending() {
			t.Fatalf("seed %d op %d: now %v pending %d, reference now %v pending %d",
				seed, op, eng.now(), eng.pending(), ref.now(), ref.pending())
		}
		if ran, passed := eng.e.Counts(); ran != ref.ran || passed != ref.passed {
			t.Fatalf("seed %d op %d: %d run and %d passed, reference %d and %d",
				seed, op, ran, passed, ref.ran, ref.passed)
		}
		st.maxDepth = max(st.maxDepth, ref.pending())
		if ref.pending() == 0 {
			st.empties++
		}
	}
	st.passes = ref.passes
	return st
}

// TestEngineMatchesReference runs matchReference at three seeds and checks
// that each reached the depths and the Quiet, Wake, pass and Run counts that
// make the comparison mean something.
func TestEngineMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		st := matchReference(t, seed)
		if st.maxDepth < 1500 || st.empties == 0 {
			t.Fatalf("seed %d: queue depth reached %d and was empty after %d ops; want ~2000 and some", seed, st.maxDepth, st.empties)
		}
		if st.quiets < 200 || st.wakes < 30 || st.passes < 1000 || st.runs < 10 {
			t.Fatalf("seed %d: %d events went quiet, %d woke, %d were passed and %d Runs drained; want hundreds, dozens, thousands and some",
				seed, st.quiets, st.wakes, st.passes, st.runs)
		}
	}
}

// FuzzEngineMatchesReference runs matchReference at fuzzed seeds:
//
//	go test -run '^$' -fuzz FuzzEngineMatchesReference -fuzztime 30s ./internal/sim
func FuzzEngineMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { matchReference(t, seed) })
}
