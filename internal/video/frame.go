// Package video plays the role of the paper's HDMI capture pipeline
// (Fig. 6): it records the device framebuffer at 30 fps into an in-memory
// video, provides frame comparison with per-pixel tolerance and masks
// (Fig. 8), and stores the result run-length encoded so that consecutive
// identical frames — the "still periods" central to the suggester — cost one
// frame of storage regardless of length. That is what makes the 24-hour
// workload tractable.
package video

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/screen"
	"repro/internal/sim"
)

// FPS is the capture rate used throughout the paper (30 frames/second).
const FPS = 30

// Frame is one captured framebuffer image.
type Frame struct {
	pix []uint8
}

// NewFrame wraps pixel data (not copied; callers hand over ownership).
// The data length must be screen.FBW*screen.FBH.
func NewFrame(pix []uint8) *Frame {
	if len(pix) != screen.FBW*screen.FBH {
		panic(fmt.Sprintf("video: frame size %d, want %d", len(pix), screen.FBW*screen.FBH))
	}
	return &Frame{pix: pix}
}

// Pix exposes the raw pixels (do not mutate).
func (f *Frame) Pix() []uint8 { return f.pix }

// EqualPix reports whether the frame's pixels equal pix exactly. This is the
// capture path's change detector: comparing the rendered framebuffer against
// the previously captured frame before cloning costs one early-exiting
// memory compare instead of a copy of every rendered frame.
func (f *Frame) EqualPix(pix []uint8) bool { return bytes.Equal(f.pix, pix) }

// Equal reports exact pixel equality, short-circuiting on pointer identity.
func Equal(a, b *Frame) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	return bytes.Equal(a.pix, b.pix)
}

// Mask marks framebuffer pixels to ignore during comparison — the paper
// masks the status-bar clock and advertisement regions (Fig. 8).
type Mask struct {
	skip []bool
	// spans are the maximal runs of unmasked pixels in address order,
	// compiled when the mask is built. Every tol==0 comparison walks them as
	// contiguous byte ranges, so a rect mask (status-bar clock, ad banner)
	// costs a handful of memory compares, and no comparison writes to a mask
	// that concurrent matchers share.
	spans []span
}

// span is the byte range [lo, hi) of a frame.
type span struct{ lo, hi int }

// newMask compiles a skip bitmap into a mask, counting the spans first so
// the mask costs one allocation for them.
func newMask(skip []bool) *Mask {
	n := 0
	for i, s := range skip {
		if !s && (i == 0 || skip[i-1]) {
			n++
		}
	}
	m := &Mask{skip: skip, spans: make([]span, 0, n)}
	for i := 0; i < len(skip); i++ {
		if skip[i] {
			continue
		}
		lo := i
		for i < len(skip) && !skip[i] {
			i++
		}
		m.spans = append(m.spans, span{lo, i})
	}
	return m
}

// NewMask builds a mask covering the given logical-coordinate rects.
func NewMask(rects ...screen.Rect) *Mask {
	skip := make([]bool, screen.FBW*screen.FBH)
	for _, r := range rects {
		x, y, w, h := screen.FBRect(r)
		for yy := y; yy < y+h && yy < screen.FBH; yy++ {
			if yy < 0 {
				continue
			}
			for xx := x; xx < x+w && xx < screen.FBW; xx++ {
				if xx >= 0 {
					skip[yy*screen.FBW+xx] = true
				}
			}
		}
	}
	return newMask(skip)
}

// Union returns a mask that skips pixels covered by either input. A nil
// receiver or argument acts as an empty mask.
func (m *Mask) Union(o *Mask) *Mask {
	if m == nil {
		return o
	}
	if o == nil {
		return m
	}
	skip := make([]bool, len(m.skip))
	for i := range m.skip {
		skip[i] = m.skip[i] || o.skip[i]
	}
	return newMask(skip)
}

// Skips reports whether pixel i is masked out. Nil masks skip nothing.
func (m *Mask) Skips(i int) bool { return m != nil && m.skip[i] }

// MaskedCount returns how many pixels the mask removes from comparison.
func (m *Mask) MaskedCount() int {
	if m == nil {
		return 0
	}
	n := 0
	for _, s := range m.skip {
		if s {
			n++
		}
	}
	return n
}

// DiffCount counts pixels that differ by more than tol, ignoring masked
// pixels. This is the primitive behind both the suggester's change detector
// and the matcher's image comparison. At tol==0 — the matcher's default
// configuration — it compares eight pixels per step over the whole frame or
// over each of the mask's spans.
func DiffCount(a, b *Frame, mask *Mask, tol uint8) int {
	if a == b {
		return 0
	}
	all := len(a.pix)
	if tol > 0 {
		return countTol(a.pix, b.pix, mask, tol, all)
	}
	if mask == nil {
		return countDiff(a.pix, b.pix, 0, all)
	}
	n := 0
	for _, s := range mask.spans {
		n = countDiff(a.pix[s.lo:s.hi], b.pix[s.lo:s.hi], n, all)
	}
	return n
}

// countDiff adds to n the number of positions where a and b differ, eight
// bytes at a time: XOR a word of each input and popcount the per-byte
// non-zero mask (the SWAR zero-byte trick — (x&0x7f…)+0x7f… overflows bit 7
// of every byte with a non-zero low part, OR-ing x itself catches 0x80).
// Equal words cost one compare. It returns as soon as the count exceeds
// limit, so a verdict needs only n > limit.
func countDiff(a, b []uint8, n, limit int) int {
	const (
		low7 = 0x7f7f7f7f7f7f7f7f
		high = 0x8080808080808080
	)
	for len(a) >= 8 && len(b) >= 8 {
		x := binary.LittleEndian.Uint64(a) ^ binary.LittleEndian.Uint64(b)
		if x != 0 {
			n += bits.OnesCount64(((x & low7) + low7 | x) & high)
			if n > limit {
				return n
			}
		}
		a, b = a[8:], b[8:]
	}
	for i := range a {
		if a[i] != b[i] {
			n++
			if n > limit {
				return n
			}
		}
	}
	return n
}

// countTol counts unmasked pixels that differ by more than tol, returning as
// soon as the count exceeds limit.
func countTol(a, b []uint8, mask *Mask, tol uint8, limit int) int {
	var skip []bool
	if mask != nil {
		skip = mask.skip
	}
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
			if n > limit {
				return n
			}
		}
	}
	return n
}

// Similar reports whether two frames match under a mask, per-pixel
// tolerance, and a maximum count of deviating pixels. The paper's suggester
// "can be set to allow a certain amount of pixel difference between frames".
// Unlike DiffCount it only needs a verdict, so every path bails out as soon
// as the running count exceeds the allowance.
func Similar(a, b *Frame, mask *Mask, tol uint8, maxDiffPixels int) bool {
	var c Comparer
	return c.Similar(a, b, mask, tol, maxDiffPixels)
}

// Comparer carries scan-locality state for repeated Similar tests of a
// stream of frames against one reference (the matcher's scan for a lag
// ending). Consecutive rejected frames usually differ from the reference in
// the same region — the row being typed into, the animating widget — so the
// comparer remembers which mask span decided the last rejection and compares
// it first. The hint only reorders the scan; verdicts are identical to
// Similar's. The zero value is ready to use; a Comparer must not be shared
// between goroutines.
type Comparer struct {
	hint int // index into the mask's spans
}

// Similar is Comparer-accelerated video.Similar: same verdict, with a masked
// scan starting at the remembered span.
func (c *Comparer) Similar(a, b *Frame, mask *Mask, tol uint8, maxDiffPixels int) bool {
	if a == b {
		return true
	}
	limit := max(maxDiffPixels, 0)
	switch {
	case tol > 0:
		return countTol(a.pix, b.pix, mask, tol, limit) <= limit
	case mask != nil:
		return !c.spansExceed(a.pix, b.pix, mask.spans, limit)
	case limit == 0:
		return bytes.Equal(a.pix, b.pix)
	}
	return countDiff(a.pix, b.pix, 0, limit) <= limit
}

// spansExceed reports whether more than limit unmasked pixels differ. Spans
// are visited from the hinted one, wrapping around, so the count is exact
// while a typical rejection is decided by the first span compared. At limit
// 0 — every entry annotate.Build makes — each span is one bytes.Equal, so a
// confirmed match costs a few memory compares rather than a word-by-word
// count.
func (c *Comparer) spansExceed(a, b []uint8, spans []span, limit int) bool {
	h := c.hint
	if h >= len(spans) {
		h = 0
	}
	n := 0
	for k := range spans {
		i := k + h
		if i >= len(spans) {
			i -= len(spans)
		}
		s := spans[i]
		if limit == 0 {
			if bytes.Equal(a[s.lo:s.hi], b[s.lo:s.hi]) {
				continue
			}
		} else if n = countDiff(a[s.lo:s.hi], b[s.lo:s.hi], n, limit); n <= limit {
			continue
		}
		c.hint = i
		return true
	}
	return false
}

// Run is a maximal sequence of identical consecutive frames.
type Run struct {
	Frame *Frame
	Start int // index of the first frame of the run
	Count int // number of consecutive identical frames
}

// Video is a run-length-encoded sequence of frames captured at a fixed rate.
type Video struct {
	fps  int
	runs []Run
}

// New returns an empty video at the given capture rate (0 → FPS).
func New(fps int) *Video {
	if fps <= 0 {
		fps = FPS
	}
	return &Video{fps: fps}
}

// FPSRate returns the capture rate.
func (v *Video) FPSRate() int { return v.fps }

// Append adds the next captured frame. Identical consecutive frames extend
// the current run and share storage.
func (v *Video) Append(f *Frame) { v.AppendN(f, 1) }

// AppendN adds n consecutive captures of f (none if n <= 0) as one run, or
// one extension of the current run when f equals its frame.
func (v *Video) AppendN(f *Frame, n int) {
	if n <= 0 {
		return
	}
	if k := len(v.runs); k > 0 && Equal(v.runs[k-1].Frame, f) {
		v.runs[k-1].Count += n
		return
	}
	v.runs = append(v.runs, Run{Frame: f, Start: v.Len(), Count: n})
}

// Len returns the number of frames.
func (v *Video) Len() int {
	if len(v.runs) == 0 {
		return 0
	}
	last := v.runs[len(v.runs)-1]
	return last.Start + last.Count
}

// Runs exposes the run-length encoding; the suggester and matcher iterate
// runs instead of frames, comparing once per distinct image.
func (v *Video) Runs() []Run { return v.runs }

// RunIndexOf returns the index into Runs of the run containing frame i.
func (v *Video) RunIndexOf(i int) int {
	if i < 0 || i >= v.Len() {
		return -1
	}
	return sort.Search(len(v.runs), func(k int) bool {
		return v.runs[k].Start+v.runs[k].Count > i
	})
}

// FrameAt returns frame i (nil if out of range).
func (v *Video) FrameAt(i int) *Frame {
	k := v.RunIndexOf(i)
	if k < 0 {
		return nil
	}
	return v.runs[k].Frame
}

// TimeOf returns the capture time of frame i.
func (v *Video) TimeOf(i int) sim.Time {
	return sim.Time(int64(i) * 1_000_000 / int64(v.fps))
}

// IndexAt returns the index of the frame visible at time t: the largest i
// with TimeOf(i) <= t, clamped to the video.
func (v *Video) IndexAt(t sim.Time) int {
	if t < 0 {
		return 0
	}
	return min(v.lastInstant(t), v.Len()-1)
}

// lastInstant returns the largest i >= 0 with TimeOf(i) <= t, for t >= 0,
// whether or not frame i has been captured yet. The ±1 adjustment keeps it
// the exact inverse of TimeOf under integer flooring.
func (v *Video) lastInstant(t sim.Time) int {
	i := int(int64(t) * int64(v.fps) / 1_000_000)
	for v.TimeOf(i+1) <= t {
		i++
	}
	for i > 0 && v.TimeOf(i) > t {
		i--
	}
	return i
}

// DistinctFrames returns the number of stored (distinct consecutive) frames,
// a measure of the RLE compression the 24-hour workload depends on.
func (v *Video) DistinctFrames() int { return len(v.runs) }
