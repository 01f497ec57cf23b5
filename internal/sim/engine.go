package sim

import (
	"fmt"
	"math"
	"sort"
)

// EventID identifies a scheduled event so it can be cancelled. An ID packs
// the event's pool slot with a generation counter: once the event fires or is
// cancelled the slot is recycled under a new generation, so a stale ID can
// never cancel an unrelated later event. The zero EventID is never issued and
// is safe to use as a "no event" sentinel.
type EventID int64

// event is one pooled event slot. Slots live in Engine.slots and are
// recycled through a free list; fn is cleared on release so the pool never
// pins dead closures for the GC. A slot is scheduled exactly while one
// queue entry or one quiet entry names it.
type event struct {
	fn    func() // the callback; nil while the slot is free
	gen   uint32 // generation, bumped on every release
	next  int32  // free-list link, valid while the slot is free
	quiet bool   // an entry of Engine.quiet names the slot (see Quiet)
}

// queueEnt is one entry of the event queue. The timestamp and FIFO sequence
// number are stored inline so ordering never chases the slot pool; the slot
// index resolves the callback only when the entry is dispatched.
type queueEnt struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among events with equal timestamps
	slot int32
}

// quietEnt is a quiet event's entry: where it is due and its period. from
// and n describe the bulk pass that moved it last: the instant it was due
// at before that pass and the number of passes it took.
type quietEnt struct {
	queueEnt
	period Duration
	from   Time
	n      int64
}

// lastAt returns the instant at which e's last pass in its bulk pass was
// queued: its instant before the pass if it was passed once, else one
// period before where it landed.
func (e *quietEnt) lastAt() Time {
	if e.n == 1 {
		return e.from
	}
	return e.at - Time(e.period)
}

// never is the instant no event reaches: Engine.quietAt while nothing is
// quiet.
const never = Time(math.MaxInt64)

// tailScan is how many entries push compares from the tail before it
// bisects the rest of the queue. In a replay a new event lands within one or
// two entries of the tail nearly every time, so the bisect serves only deep
// queues.
const tailScan = 8

// Engine is the discrete-event simulation core. It is not safe for
// concurrent use; the whole simulated device runs single-threaded, which is
// both faster and deterministic.
//
// The queue is one value slice of entries sorted by descending (timestamp,
// sequence), so the next event is the last element and dispatch shrinks the
// slice. A replay keeps fewer than ten events queued, and a new event is
// usually among the next few due, so push compares up to tailScan entries
// from the tail, bisects past that, and moves the entries due before the new
// one up a place with one copy. Cancel removes its entry at once, scanning
// from the tail, where a re-armed cluster event sits. Events live in a slot
// pool recycled through a free list. In steady state AtFunc, AfterFunc,
// Cancel, Quiet, Wake, a bulk pass and event dispatch perform zero heap
// allocations.
//
// A pending event can be marked quiet (Quiet). Its callback never runs: each
// time it comes due the engine passes it, queuing it again one period later
// under the next sequence number, on the same slot — exactly what a callback
// whose only act is AfterFunc(period, fn) does to the engine. The exactness
// rule: an event may be quiet only while running it would re-arm it with the
// same period and change no other state. Its owner must Wake it before
// anything that callback reads changes; waking is always safe, because a
// live callback that changes nothing equals a passed one. A periodic sampler
// that goes quiet this way keeps its queue position against every other
// event. It must never be dropped and re-armed on wake instead: the re-armed
// event would take a later sequence number than events already queued for
// its instant.
//
// Quiet events stay out of the queue, in a short list whose earliest
// instant the engine caches. Before it runs a live event, and when RunUntil
// reaches its deadline, the engine takes in one bulk pass every pass that
// passing one tick at a time would have taken before that point (see pass).
// Dispatch order, the clock, Wake's instants and Pending are those of
// passing one tick at a time; a passed tick costs nothing however many there
// are, and while no quiet event is due the check is one comparison.
type Engine struct {
	now      Time
	queue    []queueEnt // live events
	quiet    []quietEnt // quiet events, in no order
	quietAt  Time       // the earliest instant in quiet; never when empty
	slots    []event
	freeHead int32 // head of the slot free list, -1 when empty
	nextSeq  uint64
	stopped  bool
	ran      uint64 // callbacks run since NewEngine or Reset
	passed   uint64 // quiet events passed since NewEngine or Reset
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{freeHead: -1, quietAt: never}
}

// Reset returns the engine to the state NewEngine leaves it in — clock at
// zero, nothing queued, sequence numbers and counts from zero — keeping its
// buffers. Every slot is released under a fresh generation, so no EventID
// issued before Reset can cancel an event scheduled after it.
func (e *Engine) Reset() {
	e.now, e.nextSeq, e.stopped = 0, 0, false
	e.ran, e.passed = 0, 0
	e.queue = e.queue[:0]
	e.quiet, e.quietAt = e.quiet[:0], never
	e.freeHead = -1
	for i := len(e.slots) - 1; i >= 0; i-- {
		e.freeSlot(int32(i))
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Counts reports how many callbacks the engine has run and how many times it
// has passed a quiet event since NewEngine or the last Reset. A bulk pass
// counts every tick it stands for, so the counts are those of passing one
// tick at a time.
func (e *Engine) Counts() (run, passed uint64) { return e.ran, e.passed }

// allocSlot takes a slot off the free list, growing the pool when empty.
func (e *Engine) allocSlot() int32 {
	if e.freeHead >= 0 {
		i := e.freeHead
		e.freeHead = e.slots[i].next
		return i
	}
	e.slots = append(e.slots, event{gen: 1})
	return int32(len(e.slots) - 1)
}

// freeSlot releases a slot back to the pool under a fresh generation, so any
// outstanding EventID for it becomes permanently stale.
func (e *Engine) freeSlot(i int32) {
	s := &e.slots[i]
	s.fn, s.quiet = nil, false
	s.gen++
	if s.gen == 0 { // skip generation 0 on wrap: IDs must never be zero
		s.gen = 1
	}
	s.next = e.freeHead
	e.freeHead = i
}

// AtFunc schedules fn to run at the absolute time at. Scheduling in the
// past (or at the current instant) fires the callback at the current time,
// after all events already queued for that time. The callback takes no
// arguments, so periodic subsystems (governor sample timers, service loops)
// can hold one pre-bound func value and reschedule it forever without a
// wrapper closure.
func (e *Engine) AtFunc(at Time, fn func()) EventID {
	if at < e.now {
		at = e.now
	}
	idx := e.allocSlot()
	s := &e.slots[idx]
	s.fn = fn
	e.push(queueEnt{at: at, seq: e.nextSeq, slot: idx})
	e.nextSeq++
	return EventID(int64(s.gen)<<32 | int64(idx))
}

// push inserts ent into the queue. ent carries the largest sequence number
// assigned so far, so it goes in front of every entry whose timestamp is at or
// before its own: the first index i with queue[i].at <= ent.at.
func (e *Engine) push(ent queueEnt) {
	q := e.queue
	i := len(q)
	for stop := max(i-tailScan, 0); i > stop && q[i-1].at <= ent.at; i-- {
	}
	if i > 0 && q[i-1].at <= ent.at {
		i = sort.Search(i-1, func(k int) bool { return q[k].at <= ent.at })
	}
	e.insert(i, ent)
}

// requeue inserts ent, a woken quiet event whose sequence number may be
// older than queued ones, in front of every entry due before it.
func (e *Engine) requeue(ent queueEnt) {
	q := e.queue
	e.insert(sort.Search(len(q), func(k int) bool {
		return q[k].at < ent.at || q[k].at == ent.at && q[k].seq < ent.seq
	}), ent)
}

// insert puts ent into the queue at index i.
func (e *Engine) insert(i int, ent queueEnt) {
	q := append(e.queue, queueEnt{})
	copy(q[i+1:], q[i:])
	q[i] = ent
	e.queue = q
}

// AfterFunc schedules fn to run d from now (see AtFunc).
func (e *Engine) AfterFunc(d Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.AtFunc(e.now.Add(d), fn)
}

// Cancel removes a scheduled event and its queue entry and releases its
// slot. Cancelling an event that already fired or was already cancelled is
// a no-op and returns false. Cancelling a quiet event drops it too.
func (e *Engine) Cancel(id EventID) bool {
	idx, ok := e.live(id)
	if !ok {
		return false
	}
	if e.slots[idx].quiet {
		e.dropQuiet(idx)
	} else {
		k := e.find(idx)
		e.queue = append(e.queue[:k], e.queue[k+1:]...)
	}
	e.freeSlot(idx)
	return true
}

// Quiet marks a pending event quiet with the given period: from now on, each
// time it comes due the engine passes it — queues it again period later
// under the next sequence number, keeping its slot and ID — instead of
// running its callback, until Wake, Cancel or Reset. Marking a quiet event
// again changes its period. Mark an event quiet only when its callback, run
// at each of those instants, would do nothing but re-arm itself period later
// (see Engine). Quiet reports false, and marks nothing, for a stale ID or a
// period below one microsecond.
func (e *Engine) Quiet(id EventID, period Duration) bool {
	idx, ok := e.live(id)
	if !ok || period <= 0 {
		return false
	}
	if e.slots[idx].quiet {
		e.quiet[e.findQuiet(idx)].period = period
		return true
	}
	k := e.find(idx)
	ent := e.queue[k]
	e.queue = append(e.queue[:k], e.queue[k+1:]...)
	e.slots[idx].quiet = true
	e.quiet = append(e.quiet, quietEnt{queueEnt: ent, period: period})
	e.quietAt = min(e.quietAt, ent.at)
	return true
}

// Wake makes a quiet event live again and returns the instant it is due at,
// where its callback will run. Every instant it was passed at lies before
// due, on its period's grid. Wake reports false for an event that is not
// quiet or an ID that is stale.
func (e *Engine) Wake(id EventID) (due Time, ok bool) {
	idx, ok := e.live(id)
	if !ok || !e.slots[idx].quiet {
		return 0, false
	}
	ent := e.dropQuiet(idx)
	e.slots[idx].quiet = false
	e.requeue(ent)
	return ent.at, true
}

// live resolves id to its slot, reporting false for a stale or zero ID.
func (e *Engine) live(id EventID) (int32, bool) {
	idx := int32(id & 0xffffffff)
	gen := uint32(uint64(id) >> 32)
	if idx < 0 || int(idx) >= len(e.slots) || e.slots[idx].gen != gen {
		return 0, false
	}
	return idx, true
}

// find returns the queue index of the entry naming slot idx, or -1. It scans
// from the tail, where the next events due sit.
func (e *Engine) find(idx int32) int {
	for k := len(e.queue) - 1; k >= 0; k-- {
		if e.queue[k].slot == idx {
			return k
		}
	}
	return -1
}

// findQuiet returns the index in e.quiet of the entry naming slot idx, or
// -1.
func (e *Engine) findQuiet(idx int32) int {
	for k := range e.quiet {
		if e.quiet[k].slot == idx {
			return k
		}
	}
	return -1
}

// dropQuiet removes the quiet entry naming slot idx and returns it.
func (e *Engine) dropQuiet(idx int32) queueEnt {
	k := e.findQuiet(idx)
	ent := e.quiet[k].queueEnt
	last := len(e.quiet) - 1
	e.quiet[k] = e.quiet[last]
	e.quiet = e.quiet[:last]
	if ent.at == e.quietAt {
		e.quietAt = never
		for _, q := range e.quiet {
			e.quietAt = min(e.quietAt, q.at)
		}
	}
	return ent
}

// Pending reports the number of events still scheduled, quiet ones
// included.
func (e *Engine) Pending() int { return len(e.queue) + len(e.quiet) }

// Stop makes the current Run or RunUntil call return after the in-flight
// callback completes.
func (e *Engine) Stop() { e.stopped = true }

// pass takes in one step every pass that passing one tick at a time would
// take before the event keyed (at, seq) ran. A quiet entry due before that
// key is passed first at its instant, or at the clock if it is overdue
// (RunUntil was stopped before reaching it), and then every period while
// the grid instant lies before at: each later pass carries a sequence number
// newer than seq. The entry lands where its last pass would queue it, and
// the entries passed take fresh sequence numbers in the order their last
// passes would have run (lastPassBefore).
func (e *Engine) pass(at Time, seq uint64) {
	e.quietAt = never
	k := 0
	for i := range e.quiet {
		q := &e.quiet[i]
		if q.at < at || q.at == at && q.seq < seq {
			start := max(q.at, e.now)
			n := Duration(1)
			if d := at.Sub(start); d > q.period {
				n = (d + q.period - 1) / q.period
			}
			q.from, q.n = q.at, int64(n)
			q.at = start.Add(n * q.period)
			e.passed += uint64(n)
			if i != k {
				e.quiet[i], e.quiet[k] = e.quiet[k], e.quiet[i]
				q = &e.quiet[k]
			}
			k++
		}
		e.quietAt = min(e.quietAt, q.at)
	}
	// An insertion sort: a bulk pass in a replay passes one to three
	// entries.
	passed := e.quiet[:k]
	for i := 1; i < k; i++ {
		for j := i; j > 0 && lastPassBefore(&passed[j], &passed[j-1]); j-- {
			passed[j], passed[j-1] = passed[j-1], passed[j]
		}
	}
	for i := range passed {
		passed[i].seq = e.nextSeq
		e.nextSeq++
	}
}

// lastPassBefore reports whether x's last pass in one bulk pass would have
// run before y's, passing one tick at a time, wherever that order can show. A
// sequence number only ever breaks a tie between entries due at one
// instant, so only entries that land on one instant need their true order.
// Entries whose last passes ran at different instants keep the order of
// those instants. Entries that last passed at one instant and land on one
// instant share a period, and of two such the one passed fewer times goes
// first: it started later, and at its first instant it was passed under its
// number from before the bulk pass, older than the other's fresh one, so it
// ran ahead there and at every instant after. Entries passed equally often
// started at one instant and keep the order of their entries before the
// pass.
func lastPassBefore(x, y *quietEnt) bool {
	if xl, yl := x.lastAt(), y.lastAt(); xl != yl {
		return xl < yl
	}
	if x.n != y.n {
		return x.n < y.n
	}
	if x.from != y.from {
		return x.from < y.from
	}
	return x.seq < y.seq
}

// step runs the earliest live event, advancing the clock to its timestamp,
// after taking the passes due before it. It returns false when no live event
// is queued. The event's slot is released before its callback runs, so the
// callback may immediately reuse it for follow-up scheduling.
func (e *Engine) step() bool {
	n := len(e.queue) - 1
	if n < 0 {
		return false
	}
	ent := e.queue[n]
	if e.quietAt <= ent.at {
		e.pass(ent.at, ent.seq)
	}
	e.queue = e.queue[:n]
	if ent.at > e.now {
		e.now = ent.at
	}
	fn := e.slots[ent.slot].fn
	e.freeSlot(ent.slot)
	e.ran++
	fn()
	return true
}

// Run executes events until no live event is left or Stop is called. A
// quiet event never runs, so Run leaves quiet events pending, passed up to
// the last event it ran.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

// RunUntil executes events with timestamps at or before deadline, then
// advances the clock to the deadline. Events scheduled beyond the deadline
// remain queued, and a quiet event is passed at every one of its instants up
// to the deadline unless Stop ended the run.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		n := len(e.queue)
		if n == 0 || e.queue[n-1].at > deadline {
			if e.quietAt <= deadline && deadline < never {
				e.pass(deadline+1, 0)
			}
			break
		}
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// String summarises engine state for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now: %s, pending: %d}", e.now, e.Pending())
}
