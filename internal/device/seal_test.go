package device

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/apps"
	"repro/internal/evdev"
	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/thermal"
)

// notSealState names every Device field a re-Sealed device need not share
// with a cold one, and why: immutable after Boot, scratch that is written
// before it is read, an argument of Seal, or state that its own test checks.
var notSealState = map[string]string{
	"Eng":         "own test: sim.Engine.Reset (TestEngineMatchesReference)",
	"SoC":         "own test: soc.SoC.Reset (TestResetRestoresFreshState)",
	"Govs":        "argument of Seal",
	"appsByName":  "own test: App.Init (apps.TestInitRestoresFreshState)",
	"launcher":    "own test: App.Init (apps.TestInitRestoresFreshState)",
	"music":       "own test: Service.Start (apps.TestInitRestoresFreshState)",
	"svcs":        "immutable after Boot; each restarts in Service.Start",
	"fb":          "scratch: Frame repaints every pixel before it reads one",
	"vsyncFn":     "immutable after Boot: a pre-bound tick closure",
	"minuteFn":    "immutable after Boot: a pre-bound tick closure",
	"thermalFn":   "immutable after Boot: a pre-bound tick closure",
	"thermalID":   "engine handle: its generation counts the engine's past events; sim.Engine.Reset's test covers the queue",
	"busyScratch": "scratch: the thermal tick copies into it before reading",
	"riseScratch": "scratch: the thermal tick fills it before reading",
	"heatW":       "scratch: the thermal tick and its catch-up fill it before stepping",
}

// TestSealRestoresFreshState walks every field of a device that lived a full
// run — app launches, animations, frequency and battery caps, a throttling
// thermal zone, idle residency, every service kind, observers and a
// rendered frame — and was then Sealed again. Each field must equal that of
// a cold NewMulti with the same seed, or be listed in notSealState; the
// foreground app is compared by name, since apps hold their host. An
// unlisted field that differs fails with its name.
func TestSealRestoresFreshState(t *testing.T) {
	spec := soc.WithDefaultIdle(soc.BigLittle44())
	model, err := spec.Calibrate(0)
	if err != nil {
		t.Fatal(err)
	}
	prof := Profile{
		MusicAutoPlay: true,
		NewsSync:      true,
		NewsSyncEvery: 3 * sim.Second,
		AccountSync:   true,
		Telemetry:     true,
		ExtraServices: []func() apps.Service{
			func() apps.Service { return apps.NewPeriodicService("ads", 8_000_000, sim.Second) },
		},
		SoC:          spec,
		Thermal:      thermal.PhoneConfig(2, 30, 5),
		ThermalPower: model,
		FreqCaps:     []int{-1, 11},
	}
	govs := func() []governor.Governor {
		return []governor.Governor{governor.NewInteractive(), governor.NewInteractive()}
	}

	d := NewMulti(sim.NewEngine(), 7, govs(), prof)
	d.OnInteraction = func(GroundTruth) {}
	d.OnDirty = func() {}
	d.Subscribe(func(evdev.Event) {})
	r, _ := d.Launcher().IconRect(apps.RetroRunnerName)
	cx, cy := r.Center()
	tapAt(d, sim.Time(sim.Second), cx, cy)
	px, py := apps.GamePlayButton.Center()
	tapAt(d, sim.Time(15*sim.Second), px, py)
	// Saturate a big core until its zone throttles.
	var heat func(sim.Time)
	heat = func(sim.Time) { d.SoC.SubmitPinned(1, "heat", 200_000_000, heat) }
	heat(0)
	d.Eng.RunUntil(sim.Time(40 * sim.Second))
	d.Frame()
	// Stop inside a gesture: touch down, no lift.
	for _, ev := range evdev.NewEncoder().EncodeTap(d.Eng.Now(), px, py)[:3] {
		d.Inject(ev)
	}
	if d.Foreground() == d.Launcher() || len(d.truths) == 0 || d.curGesture == nil ||
		!d.throttlers[1].Throttled() || d.SoC.Cluster(1).IdleWakes() == 0 {
		t.Fatalf("the run did not leave its state behind: foreground %s, %d truths, gesture %v, big throttled %t",
			d.Foreground().Name(), len(d.truths), d.curGesture != nil, d.throttlers[1].Throttled())
	}

	d.Seal(42, govs())
	cold := NewMulti(sim.NewEngine(), 42, govs(), prof)

	g, w := reflect.ValueOf(d).Elem(), reflect.ValueOf(cold).Elem()
	fields := map[string]bool{}
	for k := 0; k < g.NumField(); k++ {
		name := g.Type().Field(k).Name
		fields[name] = true
		if _, ok := notSealState[name]; ok {
			continue
		}
		gf, wf := readable(g.Field(k)).Interface(), readable(w.Field(k)).Interface()
		if name == "foreground" {
			gf, wf = d.foreground.Name(), cold.foreground.Name()
		}
		if gv, wv := reflect.ValueOf(gf), reflect.ValueOf(wf); gv.Kind() == reflect.Slice && gv.Len() == 0 && wv.Len() == 0 {
			continue
		}
		if !reflect.DeepEqual(gf, wf) {
			t.Errorf("Device.%s differs after a re-Seal from a cold device's: %v, want %v", name, gf, wf)
		}
	}
	for name := range notSealState {
		if !fields[name] {
			t.Errorf("notSealState lists %q, which is no Device field", name)
		}
	}
}

// readable lets reflection read an unexported field of an addressable
// struct.
func readable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}
