package video

import (
	"testing"
	"testing/quick"

	"repro/internal/screen"
	"repro/internal/sim"
)

func solidFrame(shade uint8) *Frame {
	pix := make([]uint8, screen.FBW*screen.FBH)
	for i := range pix {
		pix[i] = shade
	}
	return NewFrame(pix)
}

// scalarDiffExact is the reference byte-by-byte implementation the word-wide
// tol==0 count must agree with.
func scalarDiffExact(a, b []uint8) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// TestDiffCountExactEquivalence drives the word-wide tol==0 count
// against the scalar reference: dense and sparse differences, every byte
// value class (including 0x80, the SWAR trick's edge), differences inside
// one word and at slice tails of every alignment.
func TestDiffCountExactEquivalence(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64*, deterministic
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return rng * 0x2545f4914f6cdd1d
	}
	for _, size := range []int{0, 1, 7, 8, 9, 15, 16, 63, 64, 257, screen.FBW * screen.FBH} {
		for trial := 0; trial < 20; trial++ {
			a := make([]uint8, size)
			b := make([]uint8, size)
			for i := range a {
				a[i] = uint8(next())
			}
			copy(b, a)
			// Flip a varying fraction of bytes, biased toward word-internal
			// clusters and the tail; include 0x80 and 0x00 targets.
			flips := trial * size / 20
			for f := 0; f < flips; f++ {
				i := int(next() % uint64(size))
				switch f % 3 {
				case 0:
					b[i] ^= uint8(next()) | 1
				case 1:
					b[i] = 0x80
				default:
					b[i] = 0
				}
			}
			if got, want := countDiff(a, b, 0, size), scalarDiffExact(a, b); got != want {
				t.Fatalf("size %d trial %d: countDiff = %d, scalar = %d", size, trial, got, want)
			}
		}
	}
	// Full-frame path through the public API.
	x, y := solidFrame(10), solidFrame(10)
	y.pix[0], y.pix[screen.FBW*screen.FBH-1], y.pix[1234] = 11, 12, 0x80
	if got := DiffCount(x, y, nil, 0); got != 3 {
		t.Fatalf("DiffCount tol==0 fast path = %d, want 3", got)
	}
}

// scalarDiffMasked is the per-pixel reference for the masked comparisons.
func scalarDiffMasked(a, b []uint8, skip []bool, tol uint8) int {
	n := 0
	t := int(tol)
	for i := range a {
		if skip != nil && skip[i] {
			continue
		}
		d := int(a[i]) - int(b[i])
		if d < 0 {
			d = -d
		}
		if d > t {
			n++
		}
	}
	return n
}

// TestDiffCountMaskedEquivalence drives the masked span paths — the
// per-span count, and at limit 0 the per-span bytes.Equal — against the
// scalar reference across sizes, alignments and mask shapes: empty masks,
// fully-masked buffers, word-internal mask edges, masks ending mid-word and
// in the scalar tail.
func TestDiffCountMaskedEquivalence(t *testing.T) {
	rng := uint64(0x51ed2701)
	next := func() uint64 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return rng * 0x2545f4914f6cdd1d
	}
	var cmp Comparer
	for _, size := range []int{1, 7, 8, 9, 15, 16, 17, 63, 64, 257, screen.FBW * screen.FBH} {
		for trial := 0; trial < 24; trial++ {
			a := make([]uint8, size)
			b := make([]uint8, size)
			skip := make([]bool, size)
			for i := range a {
				a[i] = uint8(next())
			}
			copy(b, a)
			for f := 0; f < trial*size/16; f++ {
				i := int(next() % uint64(size))
				switch f % 3 {
				case 0:
					b[i] ^= uint8(next()) | 1
				case 1:
					b[i] = 0x80
				default:
					b[i] = 0
				}
			}
			switch trial % 4 {
			case 0: // empty mask
			case 1: // full mask
				for i := range skip {
					skip[i] = true
				}
			case 2: // stripes crossing word boundaries
				w := 1 + int(next()%11)
				for i := range skip {
					skip[i] = (i/w)%2 == 0
				}
			default: // random runs, including tail coverage
				for r := 0; r < 4; r++ {
					s := int(next() % uint64(size))
					e := s + 1 + int(next()%9)
					for i := s; i < e && i < size; i++ {
						skip[i] = true
					}
				}
			}
			m := newMask(skip)
			fa, fb := &Frame{pix: a}, &Frame{pix: b}
			want := scalarDiffMasked(a, b, skip, 0)
			if got := DiffCount(fa, fb, m, 0); got != want {
				t.Fatalf("size %d trial %d: masked DiffCount = %d, scalar = %d", size, trial, got, want)
			}
			// Similar must agree with a count-then-compare verdict at
			// budgets around the true count — limit 0 takes the span
			// compare — masked and unmasked, tol 0 and 3. The hinted
			// comparer carries its hint across trials and masks and must
			// still agree everywhere.
			for _, mask := range []*Mask{m, nil} {
				var ms []bool
				if mask != nil {
					ms = skip
				}
				for _, tol := range []uint8{0, 3} {
					wantN := scalarDiffMasked(a, b, ms, tol)
					for _, lim := range []int{0, wantN - 1, wantN, wantN + 1, size} {
						if lim < 0 {
							continue
						}
						if got := Similar(fa, fb, mask, tol, lim); got != (wantN <= lim) {
							t.Fatalf("size %d trial %d masked %v tol %d limit %d: Similar = %v, count %d",
								size, trial, mask != nil, tol, lim, got, wantN)
						}
						if got := cmp.Similar(fa, fb, mask, tol, lim); got != (wantN <= lim) {
							t.Fatalf("size %d trial %d masked %v tol %d limit %d: hinted Similar = %v, count %d",
								size, trial, mask != nil, tol, lim, got, wantN)
						}
					}
				}
			}
		}
	}
}

// TestDiffCountMaskedRects checks the public API end to end with real rect
// masks at frame size, including rects clipped by the screen edges.
func TestDiffCountMaskedRects(t *testing.T) {
	rng := uint64(0xfeedface)
	next := func() uint64 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return rng * 0x2545f4914f6cdd1d
	}
	pixA := make([]uint8, screen.FBW*screen.FBH)
	pixB := make([]uint8, screen.FBW*screen.FBH)
	for i := range pixA {
		pixA[i] = uint8(next())
		pixB[i] = uint8(next())
	}
	a, b := NewFrame(pixA), NewFrame(pixB)
	masks := []*Mask{
		NewMask(),
		NewMask(screen.ClockRect),
		NewMask(screen.ClockRect, screen.NavBarRect),
		NewMask(screen.Rect{X: -10, Y: -10, W: 30, H: 30}),
		NewMask(screen.Rect{X: 3, Y: 5, W: 1, H: 1}),
		NewMask(screen.Rect{X: 0, Y: 0, W: screen.LogicalW, H: screen.LogicalH}),
	}
	for mi, m := range masks {
		want := scalarDiffMasked(pixA, pixB, m.skip, 0)
		if got := DiffCount(a, b, m, 0); got != want {
			t.Fatalf("mask %d: DiffCount = %d, scalar = %d", mi, got, want)
		}
		if got, want := Similar(a, b, m, 0, want), true; got != want {
			t.Fatalf("mask %d: Similar at exact budget = %v", mi, got)
		}
		if want > 0 && Similar(a, b, m, 0, want-1) {
			t.Fatalf("mask %d: Similar under budget accepted", mi)
		}
	}
}

func TestFrameEquality(t *testing.T) {
	a, b, c := solidFrame(10), solidFrame(10), solidFrame(11)
	if !Equal(a, b) {
		t.Error("identical content not equal")
	}
	if Equal(a, c) {
		t.Error("different content equal")
	}
	if !Equal(a, a) {
		t.Error("self equality")
	}
	if Equal(a, nil) || Equal(nil, a) {
		t.Error("nil comparisons should be false")
	}
}

func TestNewFramePanicsOnWrongSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for wrong-size frame")
		}
	}()
	NewFrame(make([]uint8, 10))
}

func TestDiffCountAndTolerance(t *testing.T) {
	a := solidFrame(100)
	pix := make([]uint8, screen.FBW*screen.FBH)
	for i := range pix {
		pix[i] = 100
	}
	pix[0] = 110 // +10
	pix[1] = 103 // +3
	b := NewFrame(pix)
	if got := DiffCount(a, b, nil, 0); got != 2 {
		t.Errorf("tol 0: diff = %d, want 2", got)
	}
	if got := DiffCount(a, b, nil, 5); got != 1 {
		t.Errorf("tol 5: diff = %d, want 1", got)
	}
	if got := DiffCount(a, b, nil, 10); got != 0 {
		t.Errorf("tol 10: diff = %d, want 0", got)
	}
}

func TestMaskHidesRegion(t *testing.T) {
	a := solidFrame(50)
	pix := a.Pix()
	cp := make([]uint8, len(pix))
	copy(cp, pix)
	// Change a pixel inside the clock region.
	cx, cy, _, _ := screen.FBRect(screen.ClockRect)
	cp[cy*screen.FBW+cx] = 200
	b := NewFrame(cp)
	if DiffCount(a, b, nil, 0) != 1 {
		t.Fatal("unmasked diff should see the clock change")
	}
	mask := NewMask(screen.ClockRect)
	if DiffCount(a, b, mask, 0) != 0 {
		t.Fatal("clock mask did not hide the change (paper Fig. 8 behaviour)")
	}
	if !Similar(a, b, mask, 0, 0) {
		t.Fatal("Similar with mask should accept")
	}
}

func TestMaskUnion(t *testing.T) {
	m1 := NewMask(screen.ClockRect)
	m2 := NewMask(screen.NavBarRect)
	u := m1.Union(m2)
	if u.MaskedCount() != m1.MaskedCount()+m2.MaskedCount() {
		t.Fatalf("union masks %d pixels, want %d (disjoint rects)",
			u.MaskedCount(), m1.MaskedCount()+m2.MaskedCount())
	}
	if m1.Union(nil) != m1 || (*Mask)(nil).Union(m2) != m2 {
		t.Fatal("nil union identities broken")
	}
}

func TestSimilarMaxDiffPixels(t *testing.T) {
	a := solidFrame(0)
	pix := make([]uint8, screen.FBW*screen.FBH)
	pix[5], pix[6], pix[7] = 255, 255, 255
	b := NewFrame(pix)
	if Similar(a, b, nil, 0, 2) {
		t.Error("3 changed pixels accepted with budget 2")
	}
	if !Similar(a, b, nil, 0, 3) {
		t.Error("3 changed pixels rejected with budget 3")
	}
}

func TestVideoRLE(t *testing.T) {
	v := New(30)
	a, b := solidFrame(1), solidFrame(2)
	for i := 0; i < 100; i++ {
		v.Append(a)
	}
	v.Append(b)
	for i := 0; i < 50; i++ {
		v.Append(a)
	}
	if v.Len() != 151 {
		t.Fatalf("len = %d, want 151", v.Len())
	}
	if v.DistinctFrames() != 3 {
		t.Fatalf("runs = %d, want 3", v.DistinctFrames())
	}
	if !Equal(v.FrameAt(0), a) || !Equal(v.FrameAt(100), b) || !Equal(v.FrameAt(150), a) {
		t.Fatal("FrameAt returned wrong frames")
	}
	if v.FrameAt(151) != nil || v.FrameAt(-1) != nil {
		t.Fatal("FrameAt out of range should be nil")
	}
	runs := v.Runs()
	if runs[0].Count != 100 || runs[1].Count != 1 || runs[2].Count != 50 {
		t.Fatalf("run counts %d,%d,%d", runs[0].Count, runs[1].Count, runs[2].Count)
	}
}

func TestVideoIndexTimeRoundTrip(t *testing.T) {
	v := New(30)
	a := solidFrame(1)
	for i := 0; i < 300; i++ {
		v.Append(a)
	}
	f := func(idx uint16) bool {
		i := int(idx) % 300
		// A frame is visible from its capture time until the next capture.
		return v.IndexAt(v.TimeOf(i)) == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if v.IndexAt(-5) != 0 {
		t.Error("negative time should clamp to 0")
	}
	if v.IndexAt(sim.Time(sim.Hour)) != 299 {
		t.Error("beyond-end time should clamp to last frame")
	}
}

func TestVideoRunIndexOfProperty(t *testing.T) {
	v := New(30)
	frames := []*Frame{solidFrame(1), solidFrame(2), solidFrame(3)}
	// Runs of varying lengths.
	lens := []int{7, 1, 13, 2, 31, 5}
	for i, n := range lens {
		f := frames[i%3]
		for j := 0; j < n; j++ {
			v.Append(f)
		}
	}
	for i := 0; i < v.Len(); i++ {
		k := v.RunIndexOf(i)
		r := v.Runs()[k]
		if i < r.Start || i >= r.Start+r.Count {
			t.Fatalf("frame %d mapped to run [%d,%d)", i, r.Start, r.Start+r.Count)
		}
	}
}

func TestRecorderCapturesAtRate(t *testing.T) {
	eng := sim.NewEngine()
	shade := uint8(0)
	rec := NewRecorder(eng, 30, func() *Frame { return solidFrame(shade) })
	rec.Start()
	// Change the content at t=1s.
	eng.At(sim.Time(sim.Second), func(*sim.Engine) { shade = 99 })
	eng.RunUntil(sim.Time(2 * sim.Second))
	v := rec.Video()
	// 2 seconds at 30 fps: 61 frames (t=0 .. t=2s inclusive).
	if v.Len() < 60 || v.Len() > 61 {
		t.Fatalf("captured %d frames in 2s, want 60-61", v.Len())
	}
	if v.DistinctFrames() != 2 {
		t.Fatalf("distinct frames = %d, want 2", v.DistinctFrames())
	}
	// The change at t=1s must appear at frame 30.
	if v.FrameAt(29).Pix()[0] != 0 || v.FrameAt(30).Pix()[0] != 99 {
		t.Fatal("content change not captured at the right frame")
	}

	// A demand-driven recorder sleeps through still content and back-fills
	// the slept-over instants when woken; its video must equal per-instant
	// polling. The changes make it back-fill 29 instants, then 0 (woken
	// between two instants right after falling asleep), 1 (woken exactly at
	// the next instant) and 3000.
	changes := []sim.Time{1_000_005, 1_080_000, 1_166_666, 101_233_333}
	want, _ := captureScript(false, false, changes, sim.Time(102*sim.Second))
	got, renders := captureScript(true, false, changes, sim.Time(102*sim.Second))
	sameVideo(t, got, want)
	if renders > 20 {
		t.Fatalf("demand-driven recorder read its source %d times for %d frames; it never slept", renders, got.Len())
	}

	// The one place the two differ: a change landing exactly on a capture
	// instant from an event queued before that instant's polling tick (the
	// device's minute tick is queued a minute ahead) fires ahead of the
	// tick, so polling shows it at that instant. A woken recorder back-fills
	// the instant with the content from before the change and shows the
	// change one frame later. Every other frame is the same.
	onInstant := []sim.Time{1_000_000} // capture instant 30
	poll, _ := captureScript(false, true, onInstant, sim.Time(2*sim.Second))
	woken, _ := captureScript(true, true, onInstant, sim.Time(2*sim.Second))
	if poll.Len() != woken.Len() {
		t.Fatalf("polled %d frames, woken recorder %d", poll.Len(), woken.Len())
	}
	for i := 0; i < poll.Len(); i++ {
		p, w := poll.FrameAt(i).Pix()[0], woken.FrameAt(i).Pix()[0]
		wantP, wantW := uint8(0), uint8(0)
		if i >= 30 {
			wantP = 1
		}
		if i >= 31 {
			wantW = 1
		}
		if p != wantP || w != wantW {
			t.Fatalf("frame %d: polled shade %d, woken %d; want %d and %d", i, p, w, wantP, wantW)
		}
	}
}

// captureScript records a solid-shade source whose content changes at the
// given times, with a dirty probe (demand driven) or without (polling every
// instant), and stops the recorder at stop. Each change wakes the recorder
// before mutating the content, as device.Device's OnDirty hook does. Its
// event is queued 1 µs ahead, after any polling tick at the same instant,
// or, with early, when the script starts, before every polling tick. It
// returns the video and how often the source was read.
func captureScript(probe, early bool, changes []sim.Time, stop sim.Time) (*Video, int) {
	eng := sim.NewEngine()
	frame, dirty, reads := solidFrame(0), true, 0
	rec := NewRecorder(eng, FPS, func() *Frame {
		reads++
		dirty = false
		return frame
	})
	if probe {
		rec.BindDirty(func() bool { return dirty })
	}
	rec.Start()
	for i, at := range changes {
		shade := uint8(i + 1)
		change := func(*sim.Engine) {
			if !dirty {
				rec.Wake()
			}
			frame, dirty = solidFrame(shade), true
		}
		if early {
			eng.At(at, change)
			continue
		}
		eng.At(at-1, func(e *sim.Engine) { e.At(at, change) })
	}
	eng.RunUntil(stop)
	rec.Stop()
	eng.RunUntil(stop + sim.Time(sim.Second))
	return rec.Video(), reads
}

// sameVideo fails unless two videos have identical runs and pixels.
func sameVideo(t *testing.T, got, want *Video) {
	t.Helper()
	if got.Len() != want.Len() || got.DistinctFrames() != want.DistinctFrames() {
		t.Fatalf("video has %d frames in %d runs, want %d in %d",
			got.Len(), got.DistinctFrames(), want.Len(), want.DistinctFrames())
	}
	for k, r := range got.Runs() {
		w := want.Runs()[k]
		if r.Start != w.Start || r.Count != w.Count || !Equal(r.Frame, w.Frame) {
			t.Fatalf("run %d: [%d,+%d) shade %d, want [%d,+%d) shade %d",
				k, r.Start, r.Count, r.Frame.Pix()[0], w.Start, w.Count, w.Frame.Pix()[0])
		}
	}
}

func TestRecorderStop(t *testing.T) {
	eng := sim.NewEngine()
	rec := NewRecorder(eng, 30, func() *Frame { return solidFrame(1) })
	rec.Start()
	eng.RunUntil(sim.Time(sim.Second))
	rec.Stop()
	n := rec.Video().Len()
	eng.RunUntil(sim.Time(2 * sim.Second))
	if rec.Video().Len() != n {
		t.Fatal("recorder kept capturing after Stop")
	}

	// Stopping a sleeping recorder back-fills up to the stop instant, so the
	// video is as long as a polled one: after the change at 1 s it falls
	// asleep past instant 32 (1,066,666 µs); stops then back-fill 0, 1 and
	// thousands of instants.
	changes := []sim.Time{1_000_005}
	for _, stop := range []sim.Time{1_066_676, 1_100_000, 1_133_332, 1_133_333, 150_000_000} {
		want, _ := captureScript(false, false, changes, stop)
		got, _ := captureScript(true, false, changes, stop)
		sameVideo(t, got, want)
	}
}

// TestRecorderWakeAllocFree gates the back-fill: waking a recorder that
// slept through hundreds of instants of unchanged content extends the
// current run once and schedules one tick, allocating nothing.
func TestRecorderWakeAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	frame, dirty := solidFrame(5), false
	rec := NewRecorder(eng, FPS, func() *Frame {
		dirty = false
		return frame
	})
	rec.BindDirty(func() bool { return dirty })
	rec.Start()
	eng.RunUntil(sim.Time(sim.Second))
	now := eng.Now()
	if avg := testing.AllocsPerRun(50, func() {
		now += sim.Time(10 * sim.Second)
		eng.RunUntil(now)
		rec.Wake()
		dirty = true
		eng.RunUntil(now + sim.Time(100*sim.Millisecond))
	}); avg != 0 {
		t.Fatalf("back-filling wake allocates %.2f, want 0", avg)
	}
	v := rec.Video()
	if v.DistinctFrames() != 1 || v.Len() < 51*300 {
		t.Fatalf("video has %d frames in %d runs, want one run of >= %d", v.Len(), v.DistinctFrames(), 51*300)
	}
}

// TestSpanCompareAllocFree gates the matcher's comparison at tolerance 0
// and max_diff_pixels 0: a masked accept and a masked reject read the
// mask's precompiled spans and allocate nothing.
func TestSpanCompareAllocFree(t *testing.T) {
	a, b, c := solidFrame(3), solidFrame(3), solidFrame(3)
	c.pix[len(c.pix)/2] = 4
	mask := NewMask(screen.ClockRect)
	var cmp Comparer
	if avg := testing.AllocsPerRun(100, func() {
		if !cmp.Similar(a, b, mask, 0, 0) || cmp.Similar(a, c, mask, 0, 0) {
			t.Fatal("span compare verdict wrong")
		}
	}); avg != 0 {
		t.Fatalf("span compare allocates %.2f, want 0", avg)
	}
}

func BenchmarkDiffCount(b *testing.B) {
	x := solidFrame(10)
	y := solidFrame(12)
	mask := NewMask(screen.ClockRect)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiffCount(x, y, mask, 1)
	}
}

func BenchmarkVideoAppendRLE(b *testing.B) {
	f := solidFrame(7)
	v := New(30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Append(f)
	}
}
