package video

import (
	"testing"

	"repro/internal/screen"
)

func poolPix(fill uint8) []uint8 {
	pix := make([]uint8, screen.FBW*screen.FBH)
	for i := range pix {
		pix[i] = fill
	}
	return pix
}

// TestFramePoolRoundTrip checks the capture/release cycle: released frame
// storage is reused by the next capture, contents are correct, and the
// released video is emptied.
func TestFramePoolRoundTrip(t *testing.T) {
	p := NewFramePool()
	v := New(FPS)
	a := p.Capture(poolPix(10))
	b := p.Capture(poolPix(20))
	v.Append(a)
	v.Append(b)
	if want := NewFrame(poolPix(10)); !Equal(want, a) {
		t.Fatal("pooled capture differs from plain NewFrame")
	}

	p.Release(v)
	if v.Len() != 0 || v.DistinctFrames() != 0 {
		t.Fatalf("released video not emptied: len %d, distinct %d", v.Len(), v.DistinctFrames())
	}
	if p.Idle() != 2 {
		t.Fatalf("pool holds %d frames after release, want 2", p.Idle())
	}

	c := p.Capture(poolPix(30))
	if p.Idle() != 1 {
		t.Fatal("capture did not reuse pooled storage")
	}
	if (c != a && c != b) || c.Pix()[0] != 30 {
		t.Fatal("reused frame does not carry the new contents")
	}
	if want := NewFrame(poolPix(30)); !Equal(want, c) {
		t.Fatal("reused frame differs from plain NewFrame")
	}
}

// TestFramePoolNilSafe checks the nil pool degenerates to plain allocation
// so callers can thread an optional pool unconditionally.
func TestFramePoolNilSafe(t *testing.T) {
	var p *FramePool
	f := p.Capture(poolPix(7))
	if f == nil || f.Pix()[0] != 7 {
		t.Fatal("nil pool capture broken")
	}
	p.Release(nil) // must not panic
}

// TestFramePoolCaptureAllocFree checks steady-state captures of changing
// content cost zero allocations once the pool is primed.
func TestFramePoolCaptureAllocFree(t *testing.T) {
	p := NewFramePool()
	pix := poolPix(0)
	v := New(FPS)
	for i := 0; i < 4; i++ {
		pix[0] = uint8(i)
		v.Append(p.Capture(pix))
	}
	p.Release(v)

	shade := uint8(100)
	if avg := testing.AllocsPerRun(50, func() {
		shade++
		pix[0] = shade
		f := p.Capture(pix)
		p.free = append(p.free, f) // hand straight back, like Release would
	}); avg != 0 {
		t.Fatalf("primed pool capture allocates %.2f, want 0", avg)
	}

	// Release then record: the next recorder's video reuses the released
	// video and its run storage, so a whole capture cycle allocates nothing.
	if avg := testing.AllocsPerRun(50, func() {
		v := p.video(FPS)
		for i := 0; i < 4; i++ {
			shade++
			pix[0] = shade
			v.Append(p.Capture(pix))
		}
		if v.Len() != 4 || v.DistinctFrames() != 4 {
			t.Fatalf("recycled video holds %d frames in %d runs, want 4 in 4", v.Len(), v.DistinctFrames())
		}
		p.Release(v)
	}); avg != 0 {
		t.Fatalf("release-then-record cycle allocates %.2f, want 0", avg)
	}
}
