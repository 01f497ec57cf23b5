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
	// words is the word-run representation used by the tol==0 fast path:
	// one entry per 8-byte word containing at least one unmasked pixel,
	// carrying a byte-granular keep mask. Built lazily from skip.
	words []maskWord
}

// maskWord is one 8-byte word of the frame with its per-byte keep mask
// (0xff for every byte the comparison must inspect).
type maskWord struct {
	off  int32
	keep uint64
}

// wordRuns returns the masked word runs, building them on first use. Fully
// masked words are dropped entirely, so comparisons under a typical rect
// mask (status bar, ad banner) touch only the words that matter.
func (m *Mask) wordRuns() []maskWord {
	if m.words == nil {
		m.words = buildMaskWords(m.skip)
	}
	return m.words
}

// buildMaskWords compiles a skip bitmap into word runs covering the 8-byte
// aligned prefix; the (at most 7) tail bytes stay on the scalar path. The
// runs are emitted content-area first — starting a third of the way in and
// wrapping around — because the frames the matcher rejects usually share
// identical chrome rows (status bar at the top, nav bar at the bottom) and
// differ in the content area, so an early-exit comparison that starts there
// bails after a handful of words instead of wading through equal chrome.
// Pure counts are order-independent, so DiffCount is unaffected.
func buildMaskWords(skip []bool) []maskWord {
	n := len(skip) &^ 7
	words := make([]maskWord, 0, n/8)
	start := (n / 3) &^ 7
	emit := func(lo, hi int) {
		for off := lo; off < hi; off += 8 {
			var keep uint64
			for b := 0; b < 8; b++ {
				if !skip[off+b] {
					keep |= 0xff << (8 * b)
				}
			}
			if keep != 0 {
				words = append(words, maskWord{off: int32(off), keep: keep})
			}
		}
	}
	emit(start, n)
	emit(0, start)
	if len(words) == 0 {
		// Keep a non-nil sentinel so fully-masked masks don't rebuild.
		words = make([]maskWord, 0)
	}
	return words
}

// NewMask builds a mask covering the given logical-coordinate rects.
func NewMask(rects ...screen.Rect) *Mask {
	m := &Mask{skip: make([]bool, screen.FBW*screen.FBH)}
	for _, r := range rects {
		x, y, w, h := screen.FBRect(r)
		for yy := y; yy < y+h && yy < screen.FBH; yy++ {
			if yy < 0 {
				continue
			}
			for xx := x; xx < x+w && xx < screen.FBW; xx++ {
				if xx >= 0 {
					m.skip[yy*screen.FBW+xx] = true
				}
			}
		}
	}
	return m
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
	out := &Mask{skip: make([]bool, len(m.skip))}
	for i := range m.skip {
		out.skip[i] = m.skip[i] || o.skip[i]
	}
	return out
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
// and the matcher's image comparison. The mask nil-check is hoisted out of
// the pixel loop, and the unmasked tol==0 case — the matcher's default
// configuration — compares eight pixels per step: the matcher calls this
// once per distinct frame per lag, which adds up to millions of pixels per
// analysed run.
func DiffCount(a, b *Frame, mask *Mask, tol uint8) int {
	if a == b {
		return 0
	}
	n := 0
	t := int(tol)
	if mask == nil {
		if tol == 0 {
			return diffCountExact(a.pix, b.pix)
		}
		for i := range a.pix {
			d := int(a.pix[i]) - int(b.pix[i])
			if d < 0 {
				d = -d
			}
			if d > t {
				n++
			}
		}
		return n
	}
	if tol == 0 {
		return diffCountMaskedExact(a.pix, b.pix, mask)
	}
	skip := mask.skip
	for i := range a.pix {
		if skip[i] {
			continue
		}
		d := int(a.pix[i]) - int(b.pix[i])
		if d < 0 {
			d = -d
		}
		if d > t {
			n++
		}
	}
	return n
}

// diffCountMaskedExact is the masked tol==0 fast path: it walks the mask's
// precompiled word runs, XORs one word of each frame, applies the byte-keep
// mask and popcounts the non-zero-byte SWAR mask — identical arithmetic to
// diffCountExact, but skipping fully masked words. The scalar tail covers
// lengths that are not a multiple of eight.
func diffCountMaskedExact(a, b []uint8, m *Mask) int {
	const (
		low7 = 0x7f7f7f7f7f7f7f7f
		high = 0x8080808080808080
	)
	n := 0
	for _, w := range m.wordRuns() {
		x := (binary.LittleEndian.Uint64(a[w.off:]) ^ binary.LittleEndian.Uint64(b[w.off:])) & w.keep
		if x != 0 {
			n += bits.OnesCount64(((x & low7) + low7 | x) & high)
		}
	}
	for i := len(a) &^ 7; i < len(a); i++ {
		if !m.skip[i] && a[i] != b[i] {
			n++
		}
	}
	return n
}

// diffCountExact counts differing bytes eight at a time: XOR a word of each
// input and popcount the per-byte non-zero mask (the SWAR zero-byte trick —
// (x&0x7f…)+0x7f… overflows bit 7 of every byte with a non-zero low part,
// OR-ing x itself catches 0x80). Equal words — the overwhelmingly common
// case when the matcher compares near-identical frames — cost one compare.
// The scalar tail handles lengths that are not a multiple of eight.
func diffCountExact(a, b []uint8) int {
	const (
		low7 = 0x7f7f7f7f7f7f7f7f
		high = 0x8080808080808080
	)
	n := 0
	for len(a) >= 8 && len(b) >= 8 {
		x := binary.LittleEndian.Uint64(a) ^ binary.LittleEndian.Uint64(b)
		if x != 0 {
			n += bits.OnesCount64(((x & low7) + low7 | x) & high)
		}
		a, b = a[8:], b[8:]
	}
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// Similar reports whether two frames match under a mask, per-pixel
// tolerance, and a maximum count of deviating pixels. The paper's suggester
// "can be set to allow a certain amount of pixel difference between frames".
// Unlike DiffCount it only needs a verdict, so every path bails out as soon
// as the running count exceeds the allowance — on the matcher's reject path
// (a candidate frame that is nothing like the ending) that is typically the
// first differing word.
func Similar(a, b *Frame, mask *Mask, tol uint8, maxDiffPixels int) bool {
	if a == b {
		return true
	}
	if mask == nil && maxDiffPixels == 0 && tol == 0 {
		return Equal(a, b)
	}
	return !diffExceeds(a.pix, b.pix, mask, tol, maxDiffPixels)
}

// Comparer carries scan-locality state for repeated Similar tests of a
// stream of frames against one reference (the matcher's scan for a lag
// ending). Consecutive rejected frames usually differ from the reference in
// the same region — the row being typed into, the animating widget — so the
// comparer remembers which word decided the last rejection and tries it
// first, turning the typical reject into a single word compare. The hint
// only reorders the scan; verdicts are identical to Similar's. The zero
// value is ready to use; a Comparer must not be shared between goroutines.
type Comparer struct {
	hint int // byte offset (mask == nil) or wordRuns index (masked)
}

// Similar is Comparer-accelerated video.Similar: same verdict, with the
// reject fast path starting at the remembered hot word.
func (c *Comparer) Similar(a, b *Frame, mask *Mask, tol uint8, maxDiffPixels int) bool {
	if a == b {
		return true
	}
	if tol == 0 {
		if mask == nil && maxDiffPixels == 0 {
			return Equal(a, b)
		}
		if mask != nil {
			return !c.maskedExceeds(a.pix, b.pix, mask, maxDiffPixels)
		}
	}
	return !diffExceeds(a.pix, b.pix, mask, tol, maxDiffPixels)
}

// maskedExceeds is the hinted masked tol==0 scan: words are visited starting
// at the hinted index and wrapping around, so the count is exact while the
// early exit usually fires on the first word visited.
func (c *Comparer) maskedExceeds(a, b []uint8, mask *Mask, limit int) bool {
	const (
		low7 = 0x7f7f7f7f7f7f7f7f
		high = 0x8080808080808080
	)
	words := mask.wordRuns()
	h := c.hint
	if h >= len(words) {
		h = 0
	}
	n := 0
	for k := range words {
		i := k + h
		if i >= len(words) {
			i -= len(words)
		}
		w := words[i]
		x := (binary.LittleEndian.Uint64(a[w.off:]) ^ binary.LittleEndian.Uint64(b[w.off:])) & w.keep
		if x != 0 {
			n += bits.OnesCount64(((x & low7) + low7 | x) & high)
			if n > limit {
				c.hint = i
				return true
			}
		}
	}
	for i := len(a) &^ 7; i < len(a); i++ {
		if !mask.skip[i] && a[i] != b[i] {
			n++
			if n > limit {
				return true
			}
		}
	}
	return false
}

// diffExceeds reports whether the masked diff count exceeds limit,
// returning as soon as the verdict is decided.
func diffExceeds(a, b []uint8, mask *Mask, tol uint8, limit int) bool {
	const (
		low7 = 0x7f7f7f7f7f7f7f7f
		high = 0x8080808080808080
	)
	n := 0
	if tol == 0 {
		if mask == nil {
			for len(a) >= 8 && len(b) >= 8 {
				x := binary.LittleEndian.Uint64(a) ^ binary.LittleEndian.Uint64(b)
				if x != 0 {
					n += bits.OnesCount64(((x & low7) + low7 | x) & high)
					if n > limit {
						return true
					}
				}
				a, b = a[8:], b[8:]
			}
			for i := range a {
				if a[i] != b[i] {
					n++
					if n > limit {
						return true
					}
				}
			}
			return false
		}
		for _, w := range mask.wordRuns() {
			x := (binary.LittleEndian.Uint64(a[w.off:]) ^ binary.LittleEndian.Uint64(b[w.off:])) & w.keep
			if x != 0 {
				n += bits.OnesCount64(((x & low7) + low7 | x) & high)
				if n > limit {
					return true
				}
			}
		}
		for i := len(a) &^ 7; i < len(a); i++ {
			if !mask.skip[i] && a[i] != b[i] {
				n++
				if n > limit {
					return true
				}
			}
		}
		return false
	}
	t := int(tol)
	for i := range a {
		if mask != nil && mask.skip[i] {
			continue
		}
		d := int(a[i]) - int(b[i])
		if d < 0 {
			d = -d
		}
		if d > t {
			n++
			if n > limit {
				return true
			}
		}
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
func (v *Video) Append(f *Frame) {
	if n := len(v.runs); n > 0 && Equal(v.runs[n-1].Frame, f) {
		v.runs[n-1].Count++
		return
	}
	v.runs = append(v.runs, Run{Frame: f, Start: v.Len(), Count: 1})
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
// with TimeOf(i) <= t. The ±1 adjustment keeps it the exact inverse of
// TimeOf under integer flooring.
func (v *Video) IndexAt(t sim.Time) int {
	if t < 0 {
		return 0
	}
	i := int(int64(t) * int64(v.fps) / 1_000_000)
	for v.TimeOf(i+1) <= t {
		i++
	}
	for i > 0 && v.TimeOf(i) > t {
		i--
	}
	if max := v.Len() - 1; i > max {
		i = max
	}
	return i
}

// DistinctFrames returns the number of stored (distinct consecutive) frames,
// a measure of the RLE compression the 24-hour workload depends on.
func (v *Video) DistinctFrames() int { return len(v.runs) }
