package sim

import (
	"fmt"
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
// queue entry names it.
type event struct {
	fn    func()   // the callback; nil while the slot is free
	quiet Duration // period of a quiet event (see Quiet); 0 when live
	gen   uint32   // generation, bumped on every release
	next  int32    // free-list link, valid while the slot is free
}

// queueEnt is one entry of the event queue. The timestamp and FIFO sequence
// number are stored inline so ordering never chases the slot pool; the slot
// index resolves the callback only when the entry is dispatched.
type queueEnt struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among events with equal timestamps
	slot int32
}

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
// from the tail, where a re-armed cluster event sits. Events live in a slot pool recycled
// through a free list. In steady state AtFunc, AfterFunc, Cancel, Quiet,
// Wake and event dispatch perform zero heap allocations.
//
// A pending event can be marked quiet (Quiet): when it comes due the engine
// advances the clock to it and queues it again one period later, on the same
// slot and under the next sequence number, without running its callback —
// exactly what a callback whose only act is AfterFunc(period, fn) does to the
// engine. The exactness rule: an event may be quiet only while running it
// would re-arm it with the same period and change no other state. Its owner
// must Wake it before anything that callback reads changes; waking is always
// safe, because a live callback that changes nothing equals a passed one. A
// periodic sampler that goes quiet this way keeps its queue position against
// every other event. It must never be dropped and re-armed on wake instead:
// the re-armed event would take a later sequence number than events already
// queued for its instant.
type Engine struct {
	now      Time
	queue    []queueEnt
	slots    []event
	freeHead int32 // head of the slot free list, -1 when empty
	nextSeq  uint64
	stopped  bool
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{freeHead: -1}
}

// Reset returns the engine to the state NewEngine leaves it in — clock at
// zero, nothing queued, sequence numbers from zero — keeping its buffers.
// Every slot is released under a fresh generation, so no EventID issued
// before Reset can cancel an event scheduled after it.
func (e *Engine) Reset() {
	e.now, e.nextSeq, e.stopped = 0, 0, false
	e.queue = e.queue[:0]
	e.freeHead = -1
	for i := len(e.slots) - 1; i >= 0; i-- {
		e.freeSlot(int32(i))
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

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
	s.fn, s.quiet = nil, 0
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
	q = append(q, queueEnt{})
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
	if k := e.find(idx); k >= 0 {
		e.queue = append(e.queue[:k], e.queue[k+1:]...)
		e.freeSlot(idx)
		return true
	}
	return false
}

// Quiet marks a pending event quiet with the given period: from now on, each
// time it comes due the engine passes it — advances the clock to it and
// queues it again period later under the next sequence number, keeping its
// slot and ID — instead of running its callback, until Wake, Cancel or Reset.
// Mark an event quiet only when its callback, run at each of those instants,
// would do nothing but re-arm itself period later (see Engine). Quiet reports
// false, and marks nothing, for a stale ID or a period below one
// microsecond.
func (e *Engine) Quiet(id EventID, period Duration) bool {
	idx, ok := e.live(id)
	if !ok || period <= 0 {
		return false
	}
	e.slots[idx].quiet = period
	return true
}

// Wake makes a quiet event live again and returns the instant it is due at,
// where its callback will run. Every instant it was passed at lies before
// due, on its period's grid. Wake reports false for an event that is not
// quiet or an ID that is stale.
func (e *Engine) Wake(id EventID) (due Time, ok bool) {
	idx, ok := e.live(id)
	if !ok || e.slots[idx].quiet == 0 {
		return 0, false
	}
	e.slots[idx].quiet = 0
	return e.queue[e.find(idx)].at, true
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

// Pending reports the number of events still scheduled.
func (e *Engine) Pending() int { return len(e.queue) }

// Stop makes the current Run or RunUntil call return after the in-flight
// callback completes.
func (e *Engine) Stop() { e.stopped = true }

// step executes the earliest pending event, advancing the clock to its
// timestamp. It returns false when the queue is empty. The event's slot is
// released before its callback runs, so the callback may immediately reuse
// it for follow-up scheduling. A quiet event is passed instead: it keeps its
// slot and is queued again one period later under the next sequence number,
// which is where a callback re-arming it would put it, on the slot that
// freeing and re-allocating would hand it, so the queue and the free list
// end up exactly as a live no-op callback leaves them.
func (e *Engine) step() bool {
	n := len(e.queue) - 1
	if n < 0 {
		return false
	}
	ent := e.queue[n]
	e.queue = e.queue[:n]
	if ent.at > e.now {
		e.now = ent.at
	}
	s := &e.slots[ent.slot]
	if s.quiet > 0 {
		e.push(queueEnt{at: e.now.Add(s.quiet), seq: e.nextSeq, slot: ent.slot})
		e.nextSeq++
		return true
	}
	fn := s.fn
	e.freeSlot(ent.slot)
	fn()
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

// RunUntil executes events with timestamps at or before deadline, then
// advances the clock to the deadline. Events scheduled beyond the deadline
// remain queued.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		n := len(e.queue)
		if n == 0 || e.queue[n-1].at > deadline {
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
	return fmt.Sprintf("sim.Engine{now: %s, pending: %d}", e.now, len(e.queue))
}
