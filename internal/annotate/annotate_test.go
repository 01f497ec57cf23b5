package annotate

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/evdev"
	"repro/internal/screen"
	"repro/internal/sim"
	"repro/internal/video"
)

// synthVideo builds a video with known structure: still background, then per
// interaction a change burst followed by a distinct still end state.
func synthFrame(stamp uint8) *video.Frame {
	pix := make([]uint8, screen.FBW*screen.FBH)
	for i := range pix {
		pix[i] = 20
	}
	// Widely spaced stamp values on two pixels so small tolerances and
	// small pixel budgets never merge distinct states.
	pix[500] = stamp * 25
	pix[600] = stamp * 25
	return video.NewFrame(pix)
}

// buildScenario returns a video plus gestures/truths for two interactions
// and one spurious input.
func buildScenario() (*video.Video, []evdev.Gesture, []device.GroundTruth) {
	v := video.New(30)
	frameT := func(i int) sim.Time { return v.TimeOf(i) }

	appendRun := func(stamp uint8, n int) {
		f := synthFrame(stamp)
		for i := 0; i < n; i++ {
			v.Append(f)
		}
	}
	// Frames 0..29: initial state.
	appendRun(1, 30)
	// Interaction 0: input at frame 30, loading 30..44, end state from 45.
	appendRun(2, 1)
	appendRun(3, 1)
	appendRun(4, 13)
	appendRun(5, 45) // end state of interaction 0 (frame 45..89)
	// Spurious input at frame 95: nothing changes.
	// Interaction 1: input at frame 120, brief change, end state at 130.
	appendRun(6, 40) // frames 90..129: still (the spurious window)... recompute below
	appendRun(7, 60) // end state of interaction 1

	gestures := []evdev.Gesture{
		{Kind: evdev.Tap, Start: frameT(30), X0: 100, Y0: 100},
		{Kind: evdev.Tap, Start: frameT(95), X0: 900, Y0: 900},
		{Kind: evdev.Tap, Start: frameT(125), X0: 200, Y0: 300},
	}
	truths := []device.GroundTruth{
		{Index: 0, Label: "app.load", Class: core.CommonTask, InputTime: frameT(30), DispatchTime: frameT(32), Complete: true, CompleteTime: frameT(45)},
		{Index: 1, Spurious: true, Complete: true, InputTime: frameT(95), CompleteTime: frameT(95)},
		{Index: 2, Label: "app.next", Class: core.SimpleFrequent, InputTime: frameT(125), DispatchTime: frameT(127), Complete: true, CompleteTime: frameT(130)},
	}
	return v, gestures, truths
}

func TestBuildScenario(t *testing.T) {
	v, gestures, truths := buildScenario()
	db, err := Build("synth", v, gestures, truths, BuildOptions{MinStill: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Entries) != 3 {
		t.Fatalf("entries = %d", len(db.Entries))
	}
	if !db.Entries[1].Spurious {
		t.Fatal("spurious input not marked")
	}
	e0 := db.Entries[0]
	if e0.Spurious || e0.Image == nil {
		t.Fatal("entry 0 incomplete")
	}
	if !e0.Similar(v.FrameAt(50)) {
		t.Fatal("entry 0 image does not show the end state")
	}
	if e0.Similar(v.FrameAt(10)) {
		t.Fatal("entry 0 image matches the initial state")
	}
	if e0.Class != core.CommonTask || e0.Threshold != core.CommonTask.Threshold() {
		t.Fatalf("entry 0 class/threshold: %v %v", e0.Class, e0.Threshold)
	}
	if e0.Occurrence != 1 {
		t.Fatalf("entry 0 occurrence = %d", e0.Occurrence)
	}
}

func TestBuildRejectsMismatchedInputs(t *testing.T) {
	v, gestures, truths := buildScenario()
	if _, err := Build("x", v, gestures[:2], truths, BuildOptions{}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestThresholdsExtraction(t *testing.T) {
	v, gestures, truths := buildScenario()
	db, err := Build("synth", v, gestures, truths, BuildOptions{MinStill: 1})
	if err != nil {
		t.Fatal(err)
	}
	th := db.Thresholds()
	if th.For(0) != 4*sim.Second {
		t.Fatalf("lag 0 threshold %v", th.For(0))
	}
	if th.For(2) != 1*sim.Second {
		t.Fatalf("lag 2 threshold %v", th.For(2))
	}
}

func TestMaskIncludesClockAndVolatiles(t *testing.T) {
	extra := screen.Rect{X: 100, Y: 1000, W: 880, H: 70}
	e := Entry{MaskRects: []screen.Rect{extra}}
	m := e.Mask()
	if m.MaskedCount() <= video.NewMask(screen.ClockRect).MaskedCount() {
		t.Fatal("volatile rect not included in mask")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	v, gestures, truths := buildScenario()
	db, err := Build("synth", v, gestures, truths, BuildOptions{MinStill: 1, Tolerance: 2, MaxDiff: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Workload != "synth" || back.FPS != 30 {
		t.Fatalf("metadata lost: %+v", back)
	}
	for i := range db.Entries {
		a, b := db.Entries[i], back.Entries[i]
		if a.Spurious != b.Spurious || a.Tolerance != b.Tolerance ||
			a.MaxDiff != b.MaxDiff || a.Occurrence != b.Occurrence {
			t.Fatalf("entry %d fields differ", i)
		}
		if !a.Spurious && !video.Equal(a.Image, b.Image) {
			t.Fatalf("entry %d image differs", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{broken")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(bytes.NewBufferString(`{"entries":[{"index":0,"image":"@@@"}]}`)); err == nil {
		t.Fatal("bad base64 accepted")
	}
}

// TestLoadRejectsWrongImageSize pins that an image which is not one
// framebuffer is an error naming its entry, not a panic in video.NewFrame.
func TestLoadRejectsWrongImageSize(t *testing.T) {
	good := base64.StdEncoding.EncodeToString(make([]byte, screen.FBW*screen.FBH))
	for _, tc := range []struct {
		name string
		size int
	}{
		{"short", 3},
		{"long", screen.FBW*screen.FBH + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := base64.StdEncoding.EncodeToString(make([]byte, tc.size))
			in := fmt.Sprintf(`{"entries":[{"index":0,"image":%q},{"index":1,"image":%q}]}`, good, bad)
			_, err := Load(bytes.NewBufferString(in))
			if err == nil {
				t.Fatalf("%d-byte image accepted", tc.size)
			}
			if want := fmt.Sprintf("entry 1 image: %d bytes", tc.size); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not contain %q", err, want)
			}
		})
	}
}

func TestSecondOccurrenceDetection(t *testing.T) {
	// End state identical to the pre-input state, separated by a visible
	// progress phase (the paper's send-MMS case).
	v := video.New(30)
	appendRun := func(stamp uint8, n int) {
		f := synthFrame(stamp)
		for i := 0; i < n; i++ {
			v.Append(f)
		}
	}
	appendRun(1, 40) // idle state (will also be the end state)
	appendRun(2, 30) // progress overlay
	appendRun(1, 60) // back to the same screen

	gestures := []evdev.Gesture{{Kind: evdev.Tap, Start: v.TimeOf(35), X0: 10, Y0: 10}}
	truths := []device.GroundTruth{{
		Index: 0, Label: "app.send", Class: core.CommonTask, Complete: true,
		InputTime: v.TimeOf(35), DispatchTime: v.TimeOf(37), CompleteTime: v.TimeOf(70),
	}}
	db, err := Build("occ", v, gestures, truths, BuildOptions{MinStill: 1})
	if err != nil {
		t.Fatal(err)
	}
	if db.Entries[0].Occurrence != 2 {
		t.Fatalf("occurrence = %d, want 2 (ending looks like beginning)", db.Entries[0].Occurrence)
	}
}
