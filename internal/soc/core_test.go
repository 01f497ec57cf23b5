package soc

import (
	"testing"
	"testing/quick"

	"repro/internal/power"
	"repro/internal/sim"
)

func newTestCore() (*sim.Engine, *Cluster) {
	eng := sim.NewEngine()
	return eng, NewCore(eng, power.Snapdragon8074())
}

func TestSingleTaskTiming(t *testing.T) {
	eng, c := newTestCore()
	// At OPP 0 (300 MHz = 300 cycles/µs), 3e8 cycles take exactly 1 s.
	var doneAt sim.Time = -1
	c.Submit("work", 300_000_000, func(at sim.Time) { doneAt = at })
	eng.Run()
	if doneAt != sim.Time(1*sim.Second) {
		t.Fatalf("completion at %v, want 1s", doneAt)
	}
	if c.CumulativeBusy() != 1*sim.Second {
		t.Fatalf("busy = %v, want 1s", c.CumulativeBusy())
	}
	hist := c.BusyByOPP()
	if hist[0] != 1*sim.Second {
		t.Fatalf("busy attributed to OPP0 = %v, want 1s", hist[0])
	}
}

func TestTaskFasterAtHigherFrequency(t *testing.T) {
	for _, idx := range []int{0, 5, 13} {
		eng, c := newTestCore()
		c.RequestOPPIndex(idx)
		var doneAt sim.Time
		c.Submit("work", 300_000_000, func(at sim.Time) { doneAt = at })
		eng.Run()
		khz := c.Table()[idx].KHz
		want := sim.Duration((300_000_000*1000 + int64(khz) - 1) / int64(khz))
		if doneAt.Sub(0) != want {
			t.Errorf("OPP %d: completion %v, want %v", idx, doneAt.Sub(0), want)
		}
	}
}

func TestFrequencyChangeMidTask(t *testing.T) {
	eng, c := newTestCore()
	// 600M cycles: 1 s at 300 MHz would leave 300M cycles after 0.5 s;
	// switching to 2150.4 MHz at t=0.5s finishes the rest in ~209.7 ms.
	var doneAt sim.Time
	c.Submit("work", 600_000_000, func(at sim.Time) { doneAt = at })
	eng.AtFunc(sim.Time(500*sim.Millisecond), func() { c.RequestOPPIndex(13) })
	eng.Run()
	rem := int64(600_000_000 - 150_000_000) // 0.5s at 300MHz consumes 150M
	wantTail := (rem*1000 + 2150399) / 2150400
	want := sim.Time(500*sim.Millisecond + sim.Duration(wantTail))
	if doneAt != want {
		t.Fatalf("completion at %v, want %v", doneAt, want)
	}
	hist := c.BusyByOPP()
	if hist[0] != 500*sim.Millisecond {
		t.Errorf("busy at OPP0 = %v, want 500ms", hist[0])
	}
	if hist[13] != sim.Duration(wantTail) {
		t.Errorf("busy at OPP13 = %v, want %v", hist[13], sim.Duration(wantTail))
	}
}

func TestRoundRobinFairness(t *testing.T) {
	eng, c := newTestCore()
	// Two equal tasks submitted together must finish within one time slice
	// of each other (round-robin interleaving), not serially.
	var doneA, doneB sim.Time
	c.Submit("a", 300_000_000, func(at sim.Time) { doneA = at })
	c.Submit("b", 300_000_000, func(at sim.Time) { doneB = at })
	eng.Run()
	gap := doneB.Sub(doneA)
	if gap < 0 {
		gap = -gap
	}
	if gap > sim.Duration(TimeSlice) {
		t.Fatalf("completion gap %v exceeds one time slice (%v): not round-robin", gap, TimeSlice)
	}
	// Total busy must equal the sum of both tasks' demands at 300 MHz: 2 s.
	if c.CumulativeBusy() != 2*sim.Second {
		t.Fatalf("total busy %v, want 2s", c.CumulativeBusy())
	}
}

func TestZeroCycleTaskCompletesImmediately(t *testing.T) {
	eng, c := newTestCore()
	ran := false
	c.Submit("empty", 0, func(at sim.Time) { ran = true })
	eng.Run()
	if !ran {
		t.Fatal("zero-cycle task never completed")
	}
	if c.CumulativeBusy() != 0 {
		t.Fatalf("zero-cycle task accumulated busy time %v", c.CumulativeBusy())
	}
}

func TestCancelRunningTask(t *testing.T) {
	eng, c := newTestCore()
	ran := false
	task := c.Submit("doomed", 300_000_000, func(sim.Time) { ran = true })
	eng.AtFunc(sim.Time(100*sim.Millisecond), func() { c.Cancel(task) })
	eng.Run()
	if ran {
		t.Fatal("cancelled task completed anyway")
	}
	if c.CumulativeBusy() != 100*sim.Millisecond {
		t.Fatalf("busy = %v, want 100ms (work until cancellation)", c.CumulativeBusy())
	}
	if c.Busy() {
		t.Fatal("core still busy after cancel")
	}
}

func TestCancelQueuedTask(t *testing.T) {
	eng, c := newTestCore()
	ranB := false
	c.Submit("a", 30_000_000, nil)
	b := c.Submit("b", 30_000_000, func(sim.Time) { ranB = true })
	c.Cancel(b)
	eng.Run()
	if ranB {
		t.Fatal("cancelled queued task ran")
	}
}

func TestFreqChangeHook(t *testing.T) {
	eng, c := newTestCore()
	var changes []int
	c.OnFreqChange = func(at sim.Time, idx int) { changes = append(changes, idx) }
	eng.AtFunc(10, func() { c.RequestOPPIndex(5) })
	eng.AtFunc(20, func() { c.RequestOPPIndex(5) }) // no-op: same index
	eng.AtFunc(30, func() { c.RequestOPPIndex(13) })
	eng.Run()
	if len(changes) != 2 || changes[0] != 5 || changes[1] != 13 {
		t.Fatalf("observed transitions %v, want [5 13]", changes)
	}
}

func TestRequestOPPIndexClamps(t *testing.T) {
	_, c := newTestCore()
	c.RequestOPPIndex(-5)
	if c.OPPIndex() != 0 {
		t.Fatalf("negative index clamped to %d", c.OPPIndex())
	}
	c.RequestOPPIndex(99)
	if c.OPPIndex() != 13 {
		t.Fatalf("oversized index clamped to %d", c.OPPIndex())
	}
}

func TestIdleTimeAccounting(t *testing.T) {
	eng, c := newTestCore()
	eng.AtFunc(sim.Time(1*sim.Second), func() {
		c.Submit("w", 300_000_000, nil) // 1s at OPP0
	})
	eng.RunUntil(sim.Time(3 * sim.Second))
	if c.CumulativeBusy() != 1*sim.Second {
		t.Fatalf("busy = %v, want 1s", c.CumulativeBusy())
	}
	if c.IdleTime() != 2*sim.Second {
		t.Fatalf("idle = %v, want 2s", c.IdleTime())
	}
}

func TestCompletionCallbackCanSubmit(t *testing.T) {
	eng, c := newTestCore()
	var secondDone sim.Time
	c.Submit("first", 3_000_000, func(sim.Time) {
		c.Submit("second", 3_000_000, func(at sim.Time) { secondDone = at })
	})
	eng.Run()
	// Each task: 3M cycles at 300 MHz = 10 ms.
	if secondDone != sim.Time(20*sim.Millisecond) {
		t.Fatalf("chained completion at %v, want 20ms", secondDone)
	}
}

func TestWorkConservationProperty(t *testing.T) {
	// Total busy time equals total cycles divided by frequency, regardless
	// of how tasks interleave, for any task mix at a fixed OPP.
	f := func(sizes [5]uint16, opp uint8) bool {
		eng, c := newTestCore()
		idx := int(opp) % 14
		c.RequestOPPIndex(idx)
		khz := int64(c.Table()[idx].KHz)
		var totalCycles int64
		for _, s := range sizes {
			cyc := int64(s)*100_000 + 1
			totalCycles += cyc
			c.Submit("w", Cycles(cyc), nil)
		}
		eng.Run()
		got := int64(c.CumulativeBusy())
		// Each task rounds its tail to ≤1 µs; allow len(sizes) µs slack.
		want := totalCycles * 1000 / khz
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff <= int64(len(sizes))+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCoreTaskChurn(b *testing.B) {
	eng, c := newTestCore()
	c.RequestOPPIndex(13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Submit("w", 1_000_000, nil)
		eng.Run()
	}
}
