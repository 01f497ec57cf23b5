package sim

import "testing"

// TestEngineDeadEventCompaction pins the fix for the dead-event leak: before
// the pooled engine, a cancelled event sat in the queue until its timestamp,
// so a workload that cancels most of what it schedules (the cluster
// reschedule path does exactly that) grew the queue without bound. Cancel
// now removes the entry and frees its slot at once, so after every cancel the
// queue holds exactly the pending events and the slot pool stays at two.
func TestEngineDeadEventCompaction(t *testing.T) {
	e := NewEngine()
	fn := func(*Engine) {}
	// One far-future survivor, then a churn of schedule+cancel pairs far in
	// the future so nothing expires on its own.
	e.At(1_000_000_000, fn)
	for i := 0; i < 10_000; i++ {
		id := e.At(Time(2_000_000_000+i), fn)
		if !e.Cancel(id) {
			t.Fatalf("Cancel %d failed", i)
		}
		if q, p := len(e.queue), e.Pending(); q != p || p != 1 {
			t.Fatalf("after %d cancels: %d queued, Pending %d, want 1 and 1", i+1, q, p)
		}
	}
	if n := len(e.slots); n != 2 {
		t.Fatalf("slot pool grew to %d slots under churn, want 2", n)
	}
}

// TestEngineStaleIDNeverCancelsRecycledSlot pins the generation check: after
// an event fires (or is cancelled) its slot is recycled, and the old EventID
// must not cancel whatever event reuses the slot.
func TestEngineStaleIDNeverCancelsRecycledSlot(t *testing.T) {
	e := NewEngine()
	fired := 0
	first := e.At(10, func(*Engine) { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatal("first event did not fire")
	}
	// The freed slot is reused by the next schedule.
	second := e.At(20, func(*Engine) { fired++ })
	if EventID(uint64(first)&0xffffffff) != EventID(uint64(second)&0xffffffff) {
		t.Fatalf("slot not recycled: first id %d, second id %d", first, second)
	}
	if e.Cancel(first) {
		t.Fatal("stale ID cancelled a recycled slot")
	}
	e.Run()
	if fired != 2 {
		t.Fatal("second event lost after stale-cancel attempt")
	}
	// And a stale cancel after a real cancel is equally inert.
	third := e.At(30, func(*Engine) {})
	if !e.Cancel(third) || e.Cancel(third) {
		t.Fatal("double-cancel semantics broken")
	}
}

// TestEngineAtFuncOrdering checks AtFunc/AfterFunc interleave with At/After
// in strict (timestamp, FIFO) order — they share one queue and one sequence
// counter.
func TestEngineAtFuncOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(20, func(*Engine) { order = append(order, 2) })
	e.AtFunc(10, func() { order = append(order, 1) })
	e.AtFunc(20, func() { order = append(order, 3) })
	e.At(20, func(*Engine) { order = append(order, 4) })
	e.AfterFunc(30, func() { order = append(order, 5) })
	e.Run()
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("mixed At/AtFunc events fired out of order: %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}
}

// TestEngineCancelAtFunc checks plain-func events are cancellable like any
// other.
func TestEngineCancelAtFunc(t *testing.T) {
	e := NewEngine()
	ran := false
	id := e.AfterFunc(10, func() { ran = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for a live AtFunc event")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled AtFunc event still fired")
	}
}

// TestEngineZeroEventIDNeverIssued guards the documented sentinel property.
func TestEngineZeroEventIDNeverIssued(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 1000; i++ {
		if id := e.At(Time(i), func(*Engine) {}); id == 0 {
			t.Fatal("engine issued the zero EventID")
		}
	}
	if e.Cancel(0) {
		t.Fatal("Cancel(0) cancelled something")
	}
}

// TestEngineAllocFree gates the tentpole property: in steady state (warm
// slot pool and heap), scheduling, cancelling and dispatching events
// performs zero heap allocations.
func TestEngineAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func(*Engine) {}
	fn0 := func() {}
	// Warm the pool and heap beyond anything the measured loops need.
	for i := 0; i < 128; i++ {
		e.At(Time(i), fn)
	}
	e.Run()

	if avg := testing.AllocsPerRun(200, func() {
		e.Cancel(e.At(e.Now().Add(100), fn))
	}); avg != 0 {
		t.Fatalf("At+Cancel allocates %.1f per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		e.AtFunc(e.Now().Add(100), fn0)
		e.step()
	}); avg != 0 {
		t.Fatalf("AtFunc+step allocates %.1f per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		e.At(e.Now().Add(100), fn)
		e.step()
	}); avg != 0 {
		t.Fatalf("At+step allocates %.1f per op, want 0", avg)
	}
}

// BenchmarkEngineChurn measures the pooled schedule/cancel/dispatch cycle —
// the cluster reschedule pattern, where nearly every armed event is
// cancelled and replaced before it fires.
func BenchmarkEngineChurn(b *testing.B) {
	e := NewEngine()
	fn := func(*Engine) {}
	var pending EventID
	have := false
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if have {
			e.Cancel(pending)
		}
		pending = e.At(e.Now().Add(Duration(1+i%7)), fn)
		have = true
		if i%3 == 0 {
			e.step()
			have = false
		}
	}
}

// BenchmarkEngineReplayMix dispatches events shaped like a replay's: eight
// periodic chains, two each at 20, 33, 100 and 225 ms (governor samples, the
// vsync and capture ticks, the thermal tick, service loops), and one
// cluster-like completion event that every chain tick cancels and re-arms,
// a few times per 20 ms period. The queue holds 8–9 events, about what a
// replay holds when an event is dispatched, so this measures dispatch at a
// replay's queue depth where BenchmarkEngineScheduleRun measures it at 1,000.
func BenchmarkEngineReplayMix(b *testing.B) {
	e := NewEngine()
	var cluster EventID
	var complete func()
	complete = func() { cluster = e.AfterFunc(7*Millisecond, complete) }
	for _, p := range []Duration{20, 33, 100, 225} {
		period := p * Millisecond
		for phase := Duration(0); phase < 2; phase++ {
			var tick func()
			tick = func() {
				e.AfterFunc(period, tick)
				e.Cancel(cluster)
				cluster = e.AfterFunc(7*Millisecond, complete)
			}
			e.AtFunc(Time(phase*period/2), tick)
		}
	}
	complete()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}
