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
	fn := func() {}
	// One far-future survivor, then a churn of schedule+cancel pairs far in
	// the future so nothing expires on its own.
	e.AtFunc(1_000_000_000, fn)
	for i := 0; i < 10_000; i++ {
		id := e.AtFunc(Time(2_000_000_000+i), fn)
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
	first := e.AtFunc(10, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatal("first event did not fire")
	}
	// The freed slot is reused by the next schedule.
	second := e.AtFunc(20, func() { fired++ })
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
	third := e.AtFunc(30, func() {})
	if !e.Cancel(third) || e.Cancel(third) {
		t.Fatal("double-cancel semantics broken")
	}
}

// TestEngineAtFuncOrdering checks AtFunc and AfterFunc events interleave in
// strict (timestamp, FIFO) order — they share one queue and one sequence
// counter.
func TestEngineAtFuncOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.AtFunc(20, func() { order = append(order, 2) })
	e.AtFunc(10, func() { order = append(order, 1) })
	e.AtFunc(20, func() { order = append(order, 3) })
	e.AtFunc(20, func() { order = append(order, 4) })
	e.AfterFunc(30, func() { order = append(order, 5) })
	e.Run()
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("mixed AtFunc/AfterFunc events fired out of order: %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}
}

// TestEngineCancelAtFunc checks AfterFunc events are cancellable like
// AtFunc ones.
func TestEngineCancelAtFunc(t *testing.T) {
	e := NewEngine()
	ran := false
	id := e.AfterFunc(10, func() { ran = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for a live AfterFunc event")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled AfterFunc event still fired")
	}
}

// TestEngineZeroEventIDNeverIssued guards the documented sentinel property.
func TestEngineZeroEventIDNeverIssued(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 1000; i++ {
		if id := e.AtFunc(Time(i), func() {}); id == 0 {
			t.Fatal("engine issued the zero EventID")
		}
	}
	if e.Cancel(0) {
		t.Fatal("Cancel(0) cancelled something")
	}
}

// TestEngineAllocFree gates the tentpole property: in steady state (warm
// slot pool and heap), scheduling, cancelling, quieting, a bulk pass, waking
// and dispatching events perform zero heap allocations.
func TestEngineAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm the pool and heap beyond anything the measured loops need.
	for i := 0; i < 128; i++ {
		e.AtFunc(Time(i), fn)
	}
	e.Run()

	if avg := testing.AllocsPerRun(200, func() {
		e.Cancel(e.AtFunc(e.Now().Add(100), fn))
	}); avg != 0 {
		t.Fatalf("AtFunc+Cancel allocates %.1f per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		e.AtFunc(e.Now().Add(100), fn)
		e.step()
	}); avg != 0 {
		t.Fatalf("AtFunc+step allocates %.1f per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		e.AfterFunc(100, fn)
		e.step()
	}); avg != 0 {
		t.Fatalf("AfterFunc+step allocates %.1f per op, want 0", avg)
	}
	// Quiet 256 events, more than any fixed buffer would hold, on periods
	// of 10 and 15 so that their passes tie; take a bulk pass before a live
	// event and another at the deadline; then wake and run them all.
	ids := make([]EventID, 256)
	quietRound := func() {
		for i := range ids {
			period := Duration(10 + i%2*5)
			ids[i] = e.AfterFunc(period, fn)
			e.Quiet(ids[i], period)
		}
		e.AfterFunc(50, fn)
		e.RunUntil(e.Now().Add(100))
		for _, id := range ids {
			e.Wake(id)
		}
		e.Run()
	}
	quietRound() // grow the quiet list
	if avg := testing.AllocsPerRun(50, quietRound); avg != 0 {
		t.Fatalf("Quiet+bulk pass+Wake+step allocates %.1f per round, want 0", avg)
	}
	if _, passed := e.Counts(); passed == 0 {
		t.Fatal("no event was passed")
	}
}

// BenchmarkEngineChurn measures the pooled schedule/cancel/dispatch cycle —
// the cluster reschedule pattern, where nearly every armed event is
// cancelled and replaced before it fires.
func BenchmarkEngineChurn(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	var pending EventID
	have := false
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if have {
			e.Cancel(pending)
		}
		pending = e.AtFunc(e.Now().Add(Duration(1+i%7)), fn)
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

// BenchmarkEngineQuietMix runs 60 simulated seconds of an idle replay's
// event mix per op: one live chain every 33 ms (a vsync-like tick) and
// three quiet events, every 20, 100 and 250 ms (an idle governor sample, a
// record-only thermal tick, a paused service loop). It reports the wall
// time per simulated second.
func BenchmarkEngineQuietMix(b *testing.B) {
	e := NewEngine()
	var vsync func()
	vsync = func() { e.AfterFunc(33*Millisecond, vsync) }
	e.AfterFunc(33*Millisecond, vsync)
	for _, p := range []Duration{20, 100, 250} {
		period := p * Millisecond
		var tick func()
		tick = func() { e.AfterFunc(period, tick) }
		e.Quiet(e.AfterFunc(period, tick), period)
	}
	const window = 60 * Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now().Add(window))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/window.Seconds(), "ns/sim-s")
}
