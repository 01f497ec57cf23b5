package record

import (
	"bytes"
	"testing"

	"repro/internal/device"
	"repro/internal/evdev"
	"repro/internal/governor"
	"repro/internal/sim"
)

func newDev() *device.Device {
	eng := sim.NewEngine()
	return device.New(eng, 1, governor.NewInteractive(), device.DefaultProfile())
}

func injectTap(d *device.Device, at sim.Time, x, y int) {
	enc := evdev.NewEncoder()
	for _, ev := range enc.EncodeTap(at, x, y) {
		ev := ev
		d.Eng.AtFunc(ev.Time, func() { d.Inject(ev) })
	}
}

func TestRecorderCapturesInjectedEvents(t *testing.T) {
	d := newDev()
	rec := Attach(d)
	injectTap(d, sim.Time(sim.Second), 540, 960)
	d.Eng.RunUntil(sim.Time(2 * sim.Second))
	evs := rec.Events()
	if len(evs) < 7 {
		t.Fatalf("recorded %d events, want a full tap packet", len(evs))
	}
	gs := evdev.Classify(evs)
	if len(gs) != 1 || gs[0].Kind != evdev.Tap {
		t.Fatalf("classified %v", gs)
	}
	if gs[0].Start != sim.Time(sim.Second) {
		t.Fatalf("recorded tap at %v, want 1s", gs[0].Start)
	}
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := evdev.UnmarshalGetevent(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(evs) {
		t.Fatal("getevent round trip lost events")
	}
}

func TestAgentReplaysAccurately(t *testing.T) {
	// Record on one device.
	d1 := newDev()
	rec := Attach(d1)
	injectTap(d1, sim.Time(sim.Second), 540, 960)
	injectTap(d1, sim.Time(3*sim.Second), 100, 1700)
	d1.Eng.RunUntil(sim.Time(5 * sim.Second))

	// Replay on a fresh device with zero jitter.
	d2 := newDev()
	got := Attach(d2)
	agent := &Agent{GestureJitter: 0}
	agent.Replay(d2, rec.Events(), nil)
	d2.Eng.RunUntil(sim.Time(5 * sim.Second))

	a, b := rec.Events(), got.Events()
	if len(a) != len(b) {
		t.Fatalf("replayed %d events, recorded %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestAgentJitterIsBoundedAndPerGesture(t *testing.T) {
	d1 := newDev()
	rec := Attach(d1)
	injectTap(d1, sim.Time(sim.Second), 540, 960)
	d1.Eng.RunUntil(sim.Time(2 * sim.Second))

	d2 := newDev()
	got := Attach(d2)
	agent := NewAgent()
	agent.Replay(d2, rec.Events(), sim.NewRand(7))
	d2.Eng.RunUntil(sim.Time(2 * sim.Second))

	a, b := rec.Events(), got.Events()
	if len(a) != len(b) {
		t.Fatal("event count changed under jitter")
	}
	offset := b[0].Time.Sub(a[0].Time)
	if offset < -sim.Millisecond || offset > sim.Millisecond {
		t.Fatalf("injection offset %v exceeds ±1ms", offset)
	}
	for i := range a {
		// All events of the gesture shift by the same offset: intra-gesture
		// spacing must be exactly preserved.
		if b[i].Time.Sub(a[i].Time) != offset {
			t.Fatalf("event %d offset %v != gesture offset %v", i, b[i].Time.Sub(a[i].Time), offset)
		}
	}
}

func TestNaiveReplayDrifts(t *testing.T) {
	// The sendevent-style replayer accumulates per-event delay; over a long
	// trace the drift grows unboundedly — the reason the paper wrote its own
	// agent ("timings that vary by 0.5 to 1 second between multiple runs").
	d1 := newDev()
	rec := Attach(d1)
	enc := evdev.NewEncoder()
	for i := 0; i < 20; i++ {
		at := sim.Time(i+1) * sim.Time(sim.Second)
		for _, ev := range enc.EncodeSwipe(at, 540, 1500, 540, 300, 300*sim.Millisecond) {
			ev := ev
			d1.Eng.AtFunc(ev.Time, func() { d1.Inject(ev) })
		}
	}
	d1.Eng.RunUntil(sim.Time(25 * sim.Second))

	d2 := newDev()
	drift := NaiveReplay(d2, rec.Events(), 0)
	if drift < 500*sim.Millisecond {
		t.Fatalf("naive replay drift %v, want > 0.5s over a swipe-heavy trace", drift)
	}
	d2.Eng.RunUntil(sim.Time(30 * sim.Second))

	// Compare against the accurate agent's drift: effectively zero.
	d3 := newDev()
	agent := &Agent{GestureJitter: 0}
	agent.Replay(d3, rec.Events(), nil)
	d3.Eng.RunUntil(sim.Time(30 * sim.Second))
}
