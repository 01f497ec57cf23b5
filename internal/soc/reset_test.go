package soc

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// constructionOnly names the Cluster fields a fresh-state comparison skips:
// the engine, callbacks and the shared task pool and zero-cycle queue, all
// bound when the SoC is built and never changed by a run.
var constructionOnly = map[string]bool{
	"eng": true, "execCb": true, "OnFreqChange": true, "OnCapChange": true,
	"onIdleCore": true, "pool": true, "zq": true,
}

// TestResetRestoresFreshState pins what the device's Seal rests on for the
// silicon: after a run that leaves every kind of state behind — a frequency
// cap, OPP requests, busy grids, idle residency, migrations, and running,
// queued and zero-cycle tasks — Engine.Reset plus SoC.Reset must leave every
// Cluster field as a fresh New on a fresh engine has it, apart from the
// construction-time fields. An empty slice equals a nil one, since Reset
// keeps storage.
func TestResetRestoresFreshState(t *testing.T) {
	spec := WithDefaultIdle(BigLittle44())
	eng := sim.NewEngine()
	s := New(eng, spec)
	for i, c := range s.Clusters() {
		c.StartBusyGrid(33333*sim.Microsecond, nil)
		c.RequestOPPIndex(3 + i)
	}
	s.Cluster(1).SetFreqCap("thermal", 2)
	// A light task, a pause long enough for a deep sleep, then a burst of
	// more work than the SoC has cores, which migrates and queues.
	s.Submit("light", lightCycles, nil)
	eng.RunUntil(sim.Time(200 * sim.Millisecond))
	for k := 0; k < 20; k++ {
		s.Submit("burst", lightCycles, nil)
		s.Submit("heavy", heavyCycles, nil)
	}
	eng.RunUntil(sim.Time(300 * sim.Millisecond))
	s.Submit("empty", 0, nil)

	running, queued := 0, 0
	for _, c := range s.Clusters() {
		running += len(c.running)
		queued += c.QueueLen()
	}
	if running == 0 || queued == 0 || len(s.zq.q) == 0 || s.Migrations() == 0 || s.Cluster(0).IdleWakes() == 0 {
		t.Fatalf("setup left %d running, %d queued, %d zero-cycle tasks, %d migrations, %d wakes; want all > 0",
			running, queued, len(s.zq.q), s.Migrations(), s.Cluster(0).IdleWakes())
	}

	eng.Reset()
	s.Reset()
	fresh := New(sim.NewEngine(), spec)
	for i, c := range s.Clusters() {
		g, w := reflect.ValueOf(c).Elem(), reflect.ValueOf(fresh.Cluster(i)).Elem()
		for k := 0; k < g.NumField(); k++ {
			name := g.Type().Field(k).Name
			if constructionOnly[name] {
				continue
			}
			gf, wf := readable(g.Field(k)), readable(w.Field(k))
			if gf.Kind() == reflect.Slice && gf.Len() == 0 && wf.Len() == 0 {
				continue
			}
			if !reflect.DeepEqual(gf.Interface(), wf.Interface()) {
				t.Errorf("cluster %s: %s = %v after Reset, want %v as in a fresh SoC", c.Name(), name, gf, wf)
			}
		}
	}
	if s.Migrations() != 0 || s.sched.tickPending {
		t.Errorf("scheduler kept %d migrations, tick armed %t", s.Migrations(), s.sched.tickPending)
	}
	if len(s.zq.q) != 0 || len(s.pool.free) != len(s.pool.all) {
		t.Errorf("%d zero-cycle tasks pending, %d of %d pooled tasks free; want none live",
			len(s.zq.q), len(s.pool.free), len(s.pool.all))
	}
	if eng.Pending() != 0 || eng.Now() != 0 {
		t.Errorf("engine at %v with %d events queued, want an empty engine at 0", eng.Now(), eng.Pending())
	}
}

// readable lets reflection read an unexported field of an addressable
// struct.
func readable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}
