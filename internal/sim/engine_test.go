package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.AtFunc(30, func() { order = append(order, 3) })
	e.AtFunc(10, func() { order = append(order, 1) })
	e.AtFunc(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineFIFOForEqualTimestamps(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.AtFunc(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-timestamp events not FIFO: %v", order)
		}
	}
}

func TestEngineAfterAndNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.AfterFunc(100, func() {
		fired = append(fired, e.Now())
		e.AfterFunc(50, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 100 || fired[1] != 150 {
		t.Fatalf("nested scheduling fired at %v, want [100 150]", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	id := e.AtFunc(10, func() { ran = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for a live event")
	}
	if e.Cancel(id) {
		t.Fatal("Cancel returned true for an already-cancelled event")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled event still fired")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.AtFunc(at, func() { fired = append(fired, e.Now()) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %d events, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Fatalf("clock after RunUntil = %v, want 25", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("second RunUntil fired %d total, want 4", len(fired))
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.AtFunc(50, func() {
		e.AtFunc(10, func() { at = e.Now() }) // in the past
	})
	e.Run()
	if at != 50 {
		t.Fatalf("past-scheduled event fired at %v, want 50 (clamped)", at)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.AtFunc(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("Stop did not halt the loop: ran %d events", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", e.Pending())
	}
}

// TestEngineBulkPassTies pins two orders a bulk pass gives quiet events
// that land on one instant, each worked out by passing one tick at a time.
// The events are woken where they land, so they run in that order.
func TestEngineBulkPassTies(t *testing.T) {
	var order []string
	rec := func(name string) func() { return func() { order = append(order, name) } }

	// Passed fewer times first: a is passed at 20, 30 and 40, b, queued
	// later on a's grid, at 30 and 40. At 30 b's old entry runs ahead of
	// the one a's pass at 20 queued, and so at 40 and 50.
	e := NewEngine()
	a := e.AfterFunc(10, rec("a"))
	e.Quiet(a, 10)
	e.RunUntil(15)
	b := e.AtFunc(30, rec("b"))
	e.Quiet(b, 10)
	e.RunUntil(45)
	e.Wake(a)
	e.Wake(b)
	e.RunUntil(50)
	if got := fmt.Sprint(order); got != "[b a]" {
		t.Errorf("fewer passes: ran %s, want [b a]", got)
	}

	// Overdue entries passed equally often keep the order of their
	// instants: a stopped RunUntil leaves a (at 30, queued second) and b
	// (at 40, queued first) behind the clock at 50, and both are passed at
	// 50, 60 and 70, a first each time.
	order = order[:0]
	e = NewEngine()
	e.AtFunc(20, e.Stop)
	b = e.AtFunc(40, rec("b"))
	a = e.AtFunc(30, rec("a"))
	e.Quiet(a, 10)
	e.Quiet(b, 10)
	e.RunUntil(50)
	e.RunUntil(75)
	e.Wake(b)
	e.Wake(a)
	e.RunUntil(80)
	if got := fmt.Sprint(order); got != "[a b]" {
		t.Errorf("overdue: ran %s, want [a b]", got)
	}
}

func TestTimeArithmetic(t *testing.T) {
	var tm Time = 1_500_000
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", tm.Seconds())
	}
	if tm.Add(Millisecond*250) != 1_750_000 {
		t.Fatalf("Add: %v", tm.Add(Millisecond*250))
	}
	if tm.Sub(500_000) != Second {
		t.Fatalf("Sub: %v", tm.Sub(500_000))
	}
	if Milliseconds(150) != 150*Millisecond {
		t.Fatalf("Milliseconds constructor")
	}
	if Seconds(2.5) != 2_500_000 {
		t.Fatalf("Seconds constructor: %v", Seconds(2.5))
	}
	if (150 * Millisecond).String() != "150ms" {
		t.Fatalf("Duration.String: %q", (150 * Millisecond).String())
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d collisions in 1000 draws", same)
	}
}

func TestRandFork(t *testing.T) {
	r := NewRand(7)
	before := r.state
	f1 := r.Fork("io")
	f2 := r.Fork("io")
	if r.state != before {
		t.Fatal("Fork advanced the parent state")
	}
	for i := 0; i < 100; i++ {
		if f1.Uint64() != f2.Uint64() {
			t.Fatal("same-label forks diverged")
		}
	}
	g := r.Fork("bg")
	h := r.Fork("io")
	diff := false
	for i := 0; i < 10; i++ {
		if g.Uint64() != h.Uint64() {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different-label forks produced identical streams")
	}
}

func TestRandBounds(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandJitterProperty(t *testing.T) {
	r := NewRand(99)
	f := func(spread uint16) bool {
		s := Duration(spread)
		j := r.Jitter(s)
		return j >= -s && j <= s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandJitterFracProperty(t *testing.T) {
	r := NewRand(100)
	f := func(ms uint16) bool {
		d := Duration(ms) * Millisecond
		j := r.JitterFrac(d, 0.1)
		lo := Duration(float64(d) * 0.899)
		hi := Duration(float64(d) * 1.101)
		return j >= lo && j <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.AtFunc(Time(j%97), func() {})
		}
		e.Run()
	}
}
