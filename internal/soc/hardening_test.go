package soc

import (
	"testing"

	"repro/internal/power"
	"repro/internal/sim"
)

// TestSubmitPinnedPanicsOutOfRange pins the hardened contract: an
// out-of-range cluster index is a programming error and must panic like
// soc.New and device.NewMulti, not silently clamp pinned work onto cluster 0.
func TestSubmitPinnedPanicsOutOfRange(t *testing.T) {
	eng, s := newBigLittle()
	for _, idx := range []int{-1, 2, 99} {
		idx := idx
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SubmitPinned(%d) on a 2-cluster SoC did not panic", idx)
				}
			}()
			s.SubmitPinned(idx, "stray", lightCycles, nil)
		}()
	}
	// In-range indices still work.
	done := false
	s.SubmitPinned(1, "ok", lightCycles, func(sim.Time) { done = true })
	eng.Run()
	if !done {
		t.Fatal("in-range pinned task never completed")
	}
}

// TestCancelZeroCycleTask pins the corrected Cancel contract: cancelling a
// zero-cycle task before its queued completion event fires dequeues the
// pending onDone, on both the direct cluster path and the scheduler path.
func TestCancelZeroCycleTask(t *testing.T) {
	t.Run("cluster", func(t *testing.T) {
		eng, c := newTestCore()
		ran := false
		task := c.Submit("empty", 0, func(sim.Time) { ran = true })
		c.Cancel(task)
		eng.Run()
		if ran {
			t.Fatal("cancelled zero-cycle task still ran its onDone")
		}
		if task.Done() {
			t.Fatal("cancelled zero-cycle task marked done")
		}
	})
	t.Run("scheduler", func(t *testing.T) {
		eng, s := newBigLittle()
		ran := false
		task := s.Submit("empty", 0, func(sim.Time) { ran = true })
		s.Cancel(task)
		eng.Run()
		if ran {
			t.Fatal("cancelled zero-cycle task still ran its onDone")
		}
	})
	// Without a Cancel, the zero-cycle completion still fires through the
	// event queue exactly as before.
	t.Run("uncancelled", func(t *testing.T) {
		eng, c := newTestCore()
		var at sim.Time = -1
		task := c.Submit("empty", 0, func(a sim.Time) { at = a })
		eng.Run()
		if at != 0 {
			t.Fatalf("zero-cycle completion at %v, want 0", at)
		}
		if !task.Done() {
			t.Fatal("completed zero-cycle task not marked done")
		}
	})
}

// TestPerCoreBusyOneHot verifies the per-core accounting the load-meter fix
// builds on: one serial task on a 4-core cluster accumulates all its busy
// time on a single core slot, so per-CPU load can see a saturated core that
// the domain average (busy / (wall x cores)) hides at 25%.
func TestPerCoreBusyOneHot(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCluster(eng, ClusterSpec{Name: "quad", NumCores: 4, Table: power.Snapdragon8074()})
	c.Submit("serial", 300_000_000, nil) // 1 s at 300 MHz
	eng.Run()
	per := c.PerCoreBusy(nil)
	if len(per) != 4 {
		t.Fatalf("%d per-core entries, want 4", len(per))
	}
	if per[0] != 1*sim.Second {
		t.Errorf("core 0 busy %v, want 1s", per[0])
	}
	for i, d := range per[1:] {
		if d != 0 {
			t.Errorf("idle core %d accumulated %v busy", i+1, d)
		}
	}
	var sum sim.Duration
	for _, d := range per {
		sum += d
	}
	if sum != c.CumulativeBusy() {
		t.Errorf("per-core sum %v != cumulative %v", sum, c.CumulativeBusy())
	}
}

// TestPerCoreBusySpreadsAcrossCores: N parallel tasks occupy N distinct core
// slots, and the per-core histogram matches the cumulative total.
func TestPerCoreBusySpreadsAcrossCores(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCluster(eng, ClusterSpec{Name: "quad", NumCores: 4, Table: power.Snapdragon8074()})
	for i := 0; i < 3; i++ {
		c.Submit("par", 300_000_000, nil)
	}
	eng.Run()
	per := c.PerCoreBusy(nil)
	for i := 0; i < 3; i++ {
		if per[i] != 1*sim.Second {
			t.Errorf("core %d busy %v, want 1s", i, per[i])
		}
	}
	if per[3] != 0 {
		t.Errorf("4th core busy %v, want 0", per[3])
	}
}
