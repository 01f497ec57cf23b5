package soc

import (
	"testing"

	"repro/internal/power"
	"repro/internal/sim"
)

// TestCapClampsAndRestoresRequest pins the request/arbitrate/apply contract:
// a cap clamps the applied OPP below the governor's request, the request
// survives while capped, and lifting the cap restores it without a new
// request.
func TestCapClampsAndRestoresRequest(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCore(eng, power.Snapdragon8074())

	c.RequestOPPIndex(12)
	if c.OPPIndex() != 12 || c.RequestedOPPIndex() != 12 {
		t.Fatalf("uncapped request: applied %d, requested %d", c.OPPIndex(), c.RequestedOPPIndex())
	}

	c.SetFreqCap("thermal", 7)
	if c.OPPIndex() != 7 {
		t.Fatalf("applied %d under cap 7", c.OPPIndex())
	}
	if c.RequestedOPPIndex() != 12 {
		t.Fatalf("cap destroyed the pending request: %d", c.RequestedOPPIndex())
	}
	if !c.Capped() || c.CapIndex() != 7 {
		t.Fatalf("cap state: capped=%v idx=%d", c.Capped(), c.CapIndex())
	}

	// A request above the cap is remembered but not applied.
	c.RequestOPPIndex(13)
	if c.OPPIndex() != 7 || c.RequestedOPPIndex() != 13 {
		t.Fatalf("capped request: applied %d, requested %d", c.OPPIndex(), c.RequestedOPPIndex())
	}
	// A request below the cap applies directly.
	c.RequestOPPIndex(3)
	if c.OPPIndex() != 3 {
		t.Fatalf("request below cap applied %d, want 3", c.OPPIndex())
	}
	c.RequestOPPIndex(13)

	c.ClearFreqCap("thermal")
	if c.OPPIndex() != 13 {
		t.Fatalf("lifting the cap restored OPP %d, want pending request 13", c.OPPIndex())
	}
	if c.Capped() {
		t.Fatal("still capped after clear")
	}
}

// TestMultipleCapSourcesMinWins checks the arbiter applies the tightest of
// several named caps and only relaxes when the binding one lifts.
func TestMultipleCapSourcesMinWins(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCore(eng, power.Snapdragon8074())
	c.RequestOPPIndex(13)

	c.SetFreqCap("thermal", 9)
	c.SetFreqCap("battery", 5)
	if c.OPPIndex() != 5 || c.CapIndex() != 5 {
		t.Fatalf("two caps: applied %d, effective %d, want 5", c.OPPIndex(), c.CapIndex())
	}
	c.ClearFreqCap("battery")
	if c.OPPIndex() != 9 {
		t.Fatalf("after binding cap lifted: applied %d, want 9", c.OPPIndex())
	}
	// Updating an existing source tightens in place, no duplicate entries.
	c.SetFreqCap("thermal", 6)
	c.SetFreqCap("thermal", 4)
	if c.OPPIndex() != 4 {
		t.Fatalf("tightened cap applied %d, want 4", c.OPPIndex())
	}
	c.ClearFreqCap("thermal")
	if c.OPPIndex() != 13 || c.Capped() {
		t.Fatalf("all caps lifted: applied %d, capped %v", c.OPPIndex(), c.Capped())
	}
}

// TestCapAtLadderTopIsClear checks that capping at or above the top of the
// ladder is equivalent to clearing the cap.
func TestCapAtLadderTopIsClear(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCore(eng, power.Snapdragon8074())
	c.SetFreqCap("thermal", 5)
	c.SetFreqCap("thermal", len(c.Table())-1)
	if c.Capped() {
		t.Fatal("cap at ladder top must clear")
	}
	c.SetFreqCap("thermal", 99)
	if c.Capped() {
		t.Fatal("cap above ladder top must clear")
	}
}

// TestOnCapChangeFiresOnEffectiveChangesOnly checks the throttle-trace hook:
// it must fire exactly when the effective cap moves, not on shadowed caps.
func TestOnCapChangeFiresOnEffectiveChangesOnly(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCore(eng, power.Snapdragon8074())
	type ev struct {
		capIdx int
		capped bool
	}
	var events []ev
	c.OnCapChange = func(_ sim.Time, capIdx int, capped bool) {
		events = append(events, ev{capIdx, capped})
	}

	c.SetFreqCap("thermal", 8)  // effective 13 -> 8
	c.SetFreqCap("battery", 10) // shadowed: effective stays 8, no event
	c.SetFreqCap("thermal", 6)  // effective 8 -> 6
	c.ClearFreqCap("battery")   // shadowed: no event
	c.ClearFreqCap("thermal")   // effective 6 -> top, capped=false

	want := []ev{{8, true}, {6, true}, {13, false}}
	if len(events) != len(want) {
		t.Fatalf("got %d cap events %v, want %v", len(events), events, want)
	}
	for i, e := range events {
		if e != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
}

// TestCapChangeAttributesCycles checks the apply stage settles execution on
// cap transitions: cycles run before the cap land at the old frequency.
func TestCapChangeAttributesCycles(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCore(eng, power.Snapdragon8074())
	c.RequestOPPIndex(13)
	c.Submit("w", Cycles(1_000_000_000), nil) // outlasts the window at any OPP

	eng.AtFunc(sim.Time(100*sim.Millisecond), func() { c.SetFreqCap("thermal", 0) })
	eng.RunUntil(sim.Time(200 * sim.Millisecond))

	busy := c.BusyByOPP()
	if busy[13] != 100*sim.Millisecond {
		t.Fatalf("pre-cap busy at top OPP = %v, want 100ms", busy[13])
	}
	if busy[0] != 100*sim.Millisecond {
		t.Fatalf("post-cap busy at bottom OPP = %v, want 100ms", busy[0])
	}
}
