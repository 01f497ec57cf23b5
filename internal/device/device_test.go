package device

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/evdev"
	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/video"
)

func bootDevice(gov governor.Governor) (*sim.Engine, *Device) {
	eng := sim.NewEngine()
	d := New(eng, 42, gov, DefaultProfile())
	return eng, d
}

// tapAt injects a full tap gesture at the given time and position.
func tapAt(d *Device, at sim.Time, x, y int) {
	enc := evdev.NewEncoder()
	for _, ev := range enc.EncodeTap(at, x, y) {
		ev := ev
		d.Eng.AtFunc(ev.Time, func() { d.Inject(ev) })
	}
}

func TestBootShowsLauncher(t *testing.T) {
	eng, d := bootDevice(governor.NewOndemand())
	eng.RunUntil(sim.Time(100 * sim.Millisecond))
	if d.Foreground().Name() != apps.LauncherName {
		t.Fatalf("foreground = %s, want launcher", d.Foreground().Name())
	}
	if d.Frame() == nil {
		t.Fatal("no frame rendered")
	}
}

func TestLaunchInteractionGroundTruth(t *testing.T) {
	eng, d := bootDevice(governor.NewInteractive())
	r, ok := d.Launcher().IconRect(apps.GalleryName)
	if !ok {
		t.Fatal("gallery icon missing")
	}
	cx, cy := r.Center()
	tapAt(d, sim.Time(sim.Second), cx, cy)
	eng.RunUntil(sim.Time(30 * sim.Second))

	gts := d.GroundTruths()
	if len(gts) != 1 {
		t.Fatalf("ground truths = %d, want 1", len(gts))
	}
	gt := gts[0]
	if gt.Spurious {
		t.Fatal("launch tap classified spurious")
	}
	if gt.Label != "launcher.launch.gallery" {
		t.Fatalf("label = %q", gt.Label)
	}
	if !gt.Complete {
		t.Fatal("launch interaction never completed")
	}
	if gt.InputTime != sim.Time(sim.Second) {
		t.Fatalf("input time = %v, want 1s", gt.InputTime)
	}
	lag := gt.CompleteTime.Sub(gt.InputTime)
	if lag < 100*sim.Millisecond || lag > 10*sim.Second {
		t.Fatalf("launch lag = %v, outside plausible range", lag)
	}
	if d.Foreground().Name() != apps.GalleryName {
		t.Fatalf("foreground = %s after launch", d.Foreground().Name())
	}
}

func TestSpuriousTapDetected(t *testing.T) {
	eng, d := bootDevice(governor.NewOndemand())
	// Tap wallpaper between icons: the paper's "taps next to a button".
	tapAt(d, sim.Time(sim.Second), screen_LogicalW-20, screen_LogicalH/2)
	eng.RunUntil(sim.Time(3 * sim.Second))
	gts := d.GroundTruths()
	if len(gts) != 1 || !gts[0].Spurious {
		t.Fatalf("expected one spurious ground truth, got %+v", gts)
	}
}

// local aliases to keep the test readable without importing screen broadly
const (
	screen_LogicalW = 1080
	screen_LogicalH = 1920
)

func TestLaunchIsSlowerAtLowFrequency(t *testing.T) {
	lagAt := func(idx int) sim.Duration {
		eng := sim.NewEngine()
		d := New(eng, 7, governor.NewFixed(powerTable(), idx), DefaultProfile())
		r, _ := d.Launcher().IconRect(apps.GalleryName)
		cx, cy := r.Center()
		tapAt(d, sim.Time(sim.Second), cx, cy)
		eng.RunUntil(sim.Time(60 * sim.Second))
		gts := d.GroundTruths()
		if len(gts) != 1 || !gts[0].Complete {
			t.Fatalf("launch did not complete at OPP %d", idx)
		}
		return gts[0].CompleteTime.Sub(gts[0].InputTime)
	}
	slow := lagAt(0)
	fast := lagAt(13)
	if slow < 4*fast {
		t.Fatalf("launch lag at 0.30 GHz (%v) should be several times 2.15 GHz (%v)", slow, fast)
	}
	// Order of magnitude check against the paper's Fig. 7: ~6 s at 0.30 GHz.
	if slow < 3*sim.Second || slow > 12*sim.Second {
		t.Fatalf("cold launch at 0.30 GHz = %v, want roughly 6s", slow)
	}
}

func TestFrameChangesDuringLoadThenStill(t *testing.T) {
	eng, d := bootDevice(governor.NewFixed(powerTable(), 5))
	rec := video.NewRecorder(eng, 30, d.Frame)
	rec.Start()
	r, _ := d.Launcher().IconRect(apps.GalleryName)
	cx, cy := r.Center()
	tapAt(d, sim.Time(sim.Second), cx, cy)
	eng.RunUntil(sim.Time(20 * sim.Second))
	v := rec.Video()
	if v.DistinctFrames() < 10 {
		t.Fatalf("launch produced %d distinct frames; progressive loading missing", v.DistinctFrames())
	}
	// After completion the screen must be still: the last run must span the
	// tail of the video (minus the minute-boundary clock change).
	runs := v.Runs()
	lastRun := runs[len(runs)-1]
	if lastRun.Count < 30 {
		t.Fatalf("video tail not still: last run %d frames", lastRun.Count)
	}
}

func TestDeterministicReplaySameSeed(t *testing.T) {
	run := func() []GroundTruth {
		eng := sim.NewEngine()
		d := New(eng, 99, governor.NewOndemand(), DefaultProfile())
		r, _ := d.Launcher().IconRect(apps.CalculatorName)
		cx, cy := r.Center()
		tapAt(d, sim.Time(sim.Second), cx, cy)
		tapAt(d, sim.Time(15*sim.Second), cx, cy) // spurious: calculator now foreground
		eng.RunUntil(sim.Time(20 * sim.Second))
		return d.GroundTruths()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].CompleteTime != b[i].CompleteTime || a[i].Spurious != b[i].Spurious {
			t.Fatalf("ground truth %d differs across identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedsDifferSlightly(t *testing.T) {
	run := func(seed uint64) sim.Duration {
		eng := sim.NewEngine()
		d := New(eng, seed, governor.NewOndemand(), DefaultProfile())
		r, _ := d.Launcher().IconRect(apps.PulseNewsName)
		cx, cy := r.Center()
		tapAt(d, sim.Time(sim.Second), cx, cy)
		eng.RunUntil(sim.Time(40 * sim.Second))
		gts := d.GroundTruths()
		if len(gts) != 1 || !gts[0].Complete {
			t.Fatal("launch did not complete")
		}
		return gts[0].CompleteTime.Sub(gts[0].InputTime)
	}
	a, b := run(1), run(2)
	if a == b {
		t.Fatal("different seeds produced identical lag; repetition noise missing")
	}
	diff := float64(a-b) / float64(a)
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.35 {
		t.Fatalf("seed noise too large: %v vs %v", a, b)
	}
}

func TestFreqTraceRecorded(t *testing.T) {
	eng, d := bootDevice(governor.NewOndemand())
	r, _ := d.Launcher().IconRect(apps.GalleryName)
	cx, cy := r.Center()
	tapAt(d, sim.Time(sim.Second), cx, cy)
	eng.RunUntil(sim.Time(20 * sim.Second))
	d.FinishTraces(20 * sim.Second)
	if d.FreqTrace.TransitionCount() < 3 {
		t.Fatalf("only %d DVFS transitions recorded under ondemand with a launch burst", d.FreqTrace.TransitionCount())
	}
	if d.BusyCurve.Total() <= 0 {
		t.Fatal("busy curve empty")
	}
}

func TestClockInvalidatesEachMinute(t *testing.T) {
	eng, d := bootDevice(governor.NewFixed(powerTable(), 5))
	rec := video.NewRecorder(eng, 30, d.Frame)
	rec.Start()
	eng.RunUntil(sim.Time(3 * sim.Minute).Add(5 * sim.Second))
	v := rec.Video()
	// With zero interactions, the only changes are minute-boundary clock
	// updates: at least 3 distinct frames (plus initial).
	if v.DistinctFrames() < 3 {
		t.Fatalf("clock updates missing: %d distinct frames over 3 minutes", v.DistinctFrames())
	}
	if v.DistinctFrames() > 10 {
		t.Fatalf("too many distinct frames (%d) for an idle device", v.DistinctFrames())
	}
}

func TestHomeButtonReturnsToLauncher(t *testing.T) {
	eng, d := bootDevice(governor.NewInteractive())
	r, _ := d.Launcher().IconRect(apps.CalculatorName)
	cx, cy := r.Center()
	tapAt(d, sim.Time(sim.Second), cx, cy)
	eng.RunUntil(sim.Time(10 * sim.Second))
	if d.Foreground().Name() != apps.CalculatorName {
		t.Fatal("calculator not launched")
	}
	hx, hy := homeCenter()
	tapAt(d, sim.Time(11*sim.Second), hx, hy)
	eng.RunUntil(sim.Time(15 * sim.Second))
	if d.Foreground().Name() != apps.LauncherName {
		t.Fatalf("foreground = %s after home tap", d.Foreground().Name())
	}
	gts := d.GroundTruths()
	last := gts[len(gts)-1]
	if last.Label != "nav.home" || !last.Complete {
		t.Fatalf("home interaction ground truth: %+v", last)
	}
}
