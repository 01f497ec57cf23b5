package screen

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestRectContains(t *testing.T) {
	r := Rect{X: 100, Y: 200, W: 50, H: 60}
	cases := []struct {
		x, y int
		in   bool
	}{
		{100, 200, true}, {149, 259, true}, {125, 230, true},
		{99, 200, false}, {150, 200, false}, {100, 260, false}, {0, 0, false},
	}
	for _, c := range cases {
		if r.Contains(c.x, c.y) != c.in {
			t.Errorf("Contains(%d,%d) = %v, want %v", c.x, c.y, !c.in, c.in)
		}
	}
	cx, cy := r.Center()
	if !r.Contains(cx, cy) {
		t.Error("center not contained")
	}
}

func TestFBDimensions(t *testing.T) {
	if FBW != 54 || FBH != 96 {
		t.Fatalf("framebuffer %dx%d, want 54x96", FBW, FBH)
	}
	if LogicalW/Scale != FBW || LogicalH/Scale != FBH {
		t.Fatal("scale inconsistent with dimensions")
	}
}

func TestFillRect(t *testing.T) {
	var fb Framebuffer
	fb.FillRectFB(0, 0, FBW, FBH, 10)
	fb.FillRect(Rect{X: 200, Y: 400, W: 200, H: 200}, 99)
	if fb.At(200/Scale, 400/Scale) != 99 {
		t.Error("inside pixel not painted")
	}
	if fb.At(200/Scale-1, 400/Scale) != 10 {
		t.Error("outside pixel painted")
	}
	// Out-of-bounds drawing must not panic.
	fb.FillRectFB(-10, -10, 1000, 1000, 5)
	fb.SetFB(-1, -1, 7)
	if fb.At(-1, -1) != 0 {
		t.Error("At out of bounds should be 0")
	}

	// Every fill must paint exactly what a per-pixel reference paints:
	// random rects, one-pixel-wide and one-pixel-tall ones, full-width bands
	// and rects clipped by each screen edge, over random content.
	rng := uint64(0x2545f4914f6cdd1d)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	type rect struct{ x, y, w, h int }
	rects := []rect{
		{0, 0, FBW, FBH}, {0, 5, FBW, 1}, {0, FBH - 3, FBW, 10}, {-4, 10, FBW + 8, 3},
		{FBW - 1, 0, 1, FBH}, {0, 0, 1, 1}, {-3, -3, 5, 5}, {FBW - 2, FBH - 2, 9, 9},
		{10, -7, 1, 20}, {50, 90, 20, 20}, {FBW, 0, 3, 3}, {0, FBH, 3, 3}, {5, 5, 0, 4}, {5, 5, 4, -1},
	}
	for i := 0; i < 300; i++ {
		w, h := 1+next(FBW), 1+next(FBH)
		switch i % 3 {
		case 1:
			w = 1
		case 2:
			h = 1
		}
		rects = append(rects, rect{next(FBW+20) - 10, next(FBH+20) - 10, w, h})
	}
	var got, want Framebuffer
	for i := range got.Pix {
		got.Pix[i] = uint8(next(256))
	}
	want.Pix = got.Pix
	for i, r := range rects {
		shade := uint8(next(256))
		got.FillRectFB(r.x, r.y, r.w, r.h, shade)
		for yy := r.y; yy < r.y+r.h; yy++ {
			for xx := r.x; xx < r.x+r.w; xx++ {
				want.SetFB(xx, yy, shade)
			}
		}
		if got.Pix != want.Pix {
			t.Fatalf("rect %d %+v shade %d: fill differs from the per-pixel reference", i, r, shade)
		}
	}
}

func TestFBSpanAtLeastOnePixel(t *testing.T) {
	f := func(off uint16, ext uint8) bool {
		o := int(off) % LogicalW
		e := int(ext)%100 + 1
		return fbSpan(o, e) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBorderDrawsOutlineOnly(t *testing.T) {
	var fb Framebuffer
	r := Rect{X: 100, Y: 100, W: 400, H: 400}
	fb.Border(r, 200)
	x, y, w, h := FBRect(r)
	if fb.At(x, y) != 200 || fb.At(x+w-1, y+h-1) != 200 {
		t.Error("border corners not drawn")
	}
	if fb.At(x+w/2, y+h/2) != 0 {
		t.Error("border filled the interior")
	}
}

func TestClockChangesEachMinute(t *testing.T) {
	var a, b, c Framebuffer
	DrawStatusBar(&a, sim.Time(10*sim.Minute))
	DrawStatusBar(&b, sim.Time(10*sim.Minute+30*sim.Second))
	DrawStatusBar(&c, sim.Time(11*sim.Minute))
	if a.Pix != b.Pix {
		t.Error("status bar changed within the same minute")
	}
	if a.Pix == c.Pix {
		t.Error("status bar identical across a minute boundary (clock not live)")
	}

	// One long-lived framebuffer keeps its minute's band between draws; it
	// must match a fresh framebuffer's draw for every minute of the day,
	// with the band overwritten between draws (a redraw within a minute
	// copies the memo back) and with time moving backwards, as when a Seal
	// rewinds the clock.
	var memo Framebuffer
	check := func(now sim.Time) {
		t.Helper()
		fresh := Framebuffer{Pix: memo.Pix}
		DrawStatusBar(&fresh, now)
		DrawStatusBar(&memo, now)
		if memo.Pix != fresh.Pix {
			t.Fatalf("status bar at %v differs from a fresh framebuffer's", now)
		}
		memo.FillRectFB(0, 0, FBW, FBH, ShadeText)
		fresh = Framebuffer{Pix: memo.Pix}
		DrawStatusBar(&memo, now-now%sim.Time(sim.Minute)+sim.Time(59*sim.Second))
		DrawStatusBar(&fresh, now)
		if memo.Pix != fresh.Pix {
			t.Fatalf("redrawn status bar at %v differs from a fresh framebuffer's", now)
		}
	}
	for m := 0; m < 24*60; m++ {
		check(sim.Time(m) * sim.Time(sim.Minute))
	}
	for m := 24*60 - 1; m >= 0; m -= 7 {
		check(sim.Time(m)*sim.Time(sim.Minute) + sim.Time(30*sim.Second))
	}
}

// TestStatusBarMemoHitAllocFree gates the status bar's hot path: a redraw
// within the minute already drawn is one copy and allocates nothing.
func TestStatusBarMemoHitAllocFree(t *testing.T) {
	var fb Framebuffer
	now := sim.Time(10 * sim.Minute)
	DrawStatusBar(&fb, now)
	if avg := testing.AllocsPerRun(100, func() {
		now += sim.Time(sim.Millisecond)
		DrawStatusBar(&fb, now)
		DrawNavBar(&fb)
	}); avg != 0 {
		t.Fatalf("memo-hit status-bar draw allocates %.2f, want 0", avg)
	}
}

func TestClockConfinedToClockRect(t *testing.T) {
	var a, b Framebuffer
	DrawStatusBar(&a, sim.Time(9*sim.Minute))
	DrawStatusBar(&b, sim.Time(23*sim.Minute))
	cx, cy, cw, ch := FBRect(ClockRect)
	for y := 0; y < FBH; y++ {
		for x := 0; x < FBW; x++ {
			if a.At(x, y) != b.At(x, y) {
				if x < cx || x >= cx+cw || y < cy || y >= cy+ch {
					t.Fatalf("clock pixels leaked outside ClockRect at (%d,%d)", x, y)
				}
			}
		}
	}
}

func TestSpinnerPhasesDiffer(t *testing.T) {
	var a, b Framebuffer
	r := Rect{X: 400, Y: 800, W: 280, H: 280}
	DrawSpinner(&a, r, 0)
	DrawSpinner(&b, r, 1)
	if a.Pix == b.Pix {
		t.Error("spinner phases render identically; suggester would see a still period")
	}
	var a2 Framebuffer
	DrawSpinner(&a2, r, 8)
	if a.Pix != a2.Pix {
		t.Error("spinner phase not periodic mod 8")
	}
}

func TestProgressBar(t *testing.T) {
	var empty, half, full Framebuffer
	r := Rect{X: 100, Y: 900, W: 800, H: 100}
	DrawProgressBar(&empty, r, 0)
	DrawProgressBar(&half, r, 0.5)
	DrawProgressBar(&full, r, 1)
	if empty.Pix == half.Pix || half.Pix == full.Pix {
		t.Error("progress fractions render identically")
	}
	// Clamping must not panic or differ from bounds.
	var lo, hi Framebuffer
	DrawProgressBar(&lo, r, -3)
	DrawProgressBar(&hi, r, 7)
	if lo.Pix != empty.Pix || hi.Pix != full.Pix {
		t.Error("progress clamping broken")
	}
}

func TestKeyboardLayout(t *testing.T) {
	kb := NewKeyboard()
	if len(kb.Keys) != 10+9+7+1 {
		t.Fatalf("keyboard has %d keys, want 27", len(kb.Keys))
	}
	for _, want := range "qwertyuiopasdfghjklzxcvbnm " {
		r, ok := kb.KeyRect(want)
		if !ok {
			t.Fatalf("no key for %q", want)
		}
		cx, cy := r.Center()
		if got := kb.KeyAt(cx, cy); got != want {
			t.Errorf("KeyAt center of %q = %q", want, got)
		}
	}
	if kb.KeyAt(5, 5) != 0 {
		t.Error("KeyAt outside keyboard should be 0")
	}
}

func TestKeyboardHighlight(t *testing.T) {
	kb := NewKeyboard()
	var idle, pressed Framebuffer
	kb.Draw(&idle, 0)
	kb.Draw(&pressed, 'g')
	if idle.Pix == pressed.Pix {
		t.Error("pressed key renders identically to idle")
	}
}

func TestFramebufferClockRead(t *testing.T) {
	var fb Framebuffer
	fb.SetNow(sim.Time(5 * sim.Second))
	if fb.ClockRead() {
		t.Fatal("a new frame starts out having read the clock")
	}
	if got := fb.Now(); got != sim.Time(5*sim.Second) || !fb.ClockRead() {
		t.Fatalf("Now = %v, ClockRead %t; want 5s and true", got, fb.ClockRead())
	}
	fb.SetNow(sim.Time(6 * sim.Second))
	if fb.ClockRead() {
		t.Fatal("SetNow kept the previous frame's clock read")
	}
}

func TestDrawPatternDeterministicAndSeedSensitive(t *testing.T) {
	var a, b, c Framebuffer
	r := Rect{X: 100, Y: 300, W: 600, H: 300}
	a.DrawPattern(r, 42, 30, 220)
	b.DrawPattern(r, 42, 30, 220)
	c.DrawPattern(r, 43, 30, 220)
	if a.Pix != b.Pix {
		t.Error("same seed produced different patterns")
	}
	if a.Pix == c.Pix {
		t.Error("different seeds produced identical patterns")
	}
}

func TestDrawDigits(t *testing.T) {
	var fb Framebuffer
	w := fb.DrawDigits(2, 2, "12:45", 200)
	if w != 5*4 {
		t.Fatalf("digit width %d, want 20", w)
	}
	var fb2 Framebuffer
	fb2.DrawDigits(2, 2, "12:46", 200)
	if fb.Pix == fb2.Pix {
		t.Error("different digit strings render identically")
	}
}

func BenchmarkStatusBarRender(b *testing.B) {
	var fb Framebuffer
	for i := 0; i < b.N; i++ {
		DrawStatusBar(&fb, sim.Time(i)*sim.Time(sim.Second))
	}
}
