// Package screen models the display pipeline of the simulated device: a
// portrait 1080×1920 logical touch surface rendered into a 54×96 greyscale
// framebuffer (a 20× downscale — coarse enough to keep 24-hour videos cheap,
// fine enough that every widget, spinner, progress bar, keyboard key and the
// status-bar clock occupy distinct pixels for the video-analysis stages).
//
// The paper captures this surface over HDMI; internal/video plays the role
// of the capture card.
package screen

import (
	"fmt"

	"repro/internal/sim"
)

// Logical (touch) coordinate space, matching a Nexus-5-class portrait panel.
const (
	LogicalW = 1080
	LogicalH = 1920
)

// Framebuffer dimensions and the logical→framebuffer scale factor.
const (
	Scale = 20
	FBW   = LogicalW / Scale // 54
	FBH   = LogicalH / Scale // 96
)

// Rect is an axis-aligned rectangle in logical coordinates.
type Rect struct {
	X, Y, W, H int
}

// Contains reports whether the logical point (x, y) lies inside the rect.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X && x < r.X+r.W && y >= r.Y && y < r.Y+r.H
}

// Center returns the logical centre of the rectangle — where a workload
// script aims its taps.
func (r Rect) Center() (int, int) { return r.X + r.W/2, r.Y + r.H/2 }

// String renders the rect for debugging.
func (r Rect) String() string { return fmt.Sprintf("(%d,%d %dx%d)", r.X, r.Y, r.W, r.H) }

// Framebuffer is the greyscale pixel surface the device renders into and the
// video recorder captures.
type Framebuffer struct {
	Pix [FBW * FBH]uint8
	// patterns memoises DrawPattern output: widgets redraw the same
	// (seed, size) pattern every frame, so repeat draws become row copies
	// instead of per-pixel xorshift evaluation. The cache belongs to this
	// framebuffer (and hence to one device's goroutine); it never changes
	// what is drawn, only how fast.
	patterns map[patternKey][]uint8
	// status memoises the status-bar band of one minute (DrawStatusBar).
	status statusMemo
	// now is the instant of the frame being rendered (SetNow), and
	// clockRead records whether the frame read it (Now). A frame that never
	// read the clock depends on app state alone.
	now       sim.Time
	clockRead bool
}

// SetNow starts a frame shown at instant now: Now returns it from here on,
// and the previous frame's clock read is forgotten.
func (fb *Framebuffer) SetNow(now sim.Time) { fb.now, fb.clockRead = now, false }

// Now returns the instant of the frame being rendered and records that the
// frame depends on the clock. Content that changes with time alone
// (spinners, a time-driven progress bar) reads the time here and nowhere
// else, so the device knows to redraw such a frame every vsync and to keep
// any other frame until its app invalidates it.
func (fb *Framebuffer) Now() sim.Time {
	fb.clockRead = true
	return fb.now
}

// ClockRead reports whether the frame rendered since the last SetNow read
// the clock.
func (fb *Framebuffer) ClockRead() bool { return fb.clockRead }

// statusMemo is the rendered status-bar band of one clock minute. The band
// depends on nothing else, so a redraw within the same minute is one copy.
type statusMemo struct {
	band   [statusBarRows * FBW]uint8
	minute int64
	ok     bool
}

// patternKey identifies one memoised DrawPattern rendering.
type patternKey struct {
	seed   uint64
	w, h   int
	lo, hi uint8
}

// maxPatternCache bounds the memo to keep pathological workloads (millions
// of distinct seeds) from hoarding memory; beyond it patterns render direct.
const maxPatternCache = 4096

// fillRows sets a whole number of full rows to shade: one prepared row, then
// a doubling copy — a handful of memmoves instead of a per-byte loop.
func fillRows(region []uint8, shade uint8) {
	for i := copy(region, shadeRows[shade][:]); i < len(region); i *= 2 {
		copy(region[i:], region[:i])
	}
}

// At returns the pixel at framebuffer coordinates, 0 outside bounds.
func (fb *Framebuffer) At(x, y int) uint8 {
	if x < 0 || x >= FBW || y < 0 || y >= FBH {
		return 0
	}
	return fb.Pix[y*FBW+x]
}

// SetFB writes one framebuffer pixel, ignoring out-of-bounds writes.
func (fb *Framebuffer) SetFB(x, y int, shade uint8) {
	if x < 0 || x >= FBW || y < 0 || y >= FBH {
		return
	}
	fb.Pix[y*FBW+x] = shade
}

// FillRectFB fills a rectangle given directly in framebuffer coordinates.
// Bounds are clamped once up front; every row is then a single copy.
func (fb *Framebuffer) FillRectFB(x, y, w, h int, shade uint8) {
	x1, y1 := x+w, y+h
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	if x1 > FBW {
		x1 = FBW
	}
	if y1 > FBH {
		y1 = FBH
	}
	if x >= x1 || y >= y1 {
		return
	}
	if x == 0 && x1 == FBW {
		// Full-width fill: the rows form one contiguous byte range, so a
		// doubling copy beats the per-row loop. Full-width clears — content
		// area, keyboard band, bars — are the most common fills on the
		// render path.
		fillRows(fb.Pix[y*FBW:y1*FBW], shade)
		return
	}
	src := shadeRows[shade][:x1-x]
	for yy := y; yy < y1; yy++ {
		copy(fb.Pix[yy*FBW+x:], src)
	}
}

// shadeRows holds one framebuffer row of every shade, so a narrow fill
// copies a prepared row into each row of its rect.
var shadeRows = func() (rows [256][FBW]uint8) {
	for s := range rows {
		for x := range rows[s] {
			rows[s][x] = uint8(s)
		}
	}
	return rows
}()

// FillRect fills a logical-coordinate rectangle.
func (fb *Framebuffer) FillRect(r Rect, shade uint8) {
	fb.FillRectFB(r.X/Scale, r.Y/Scale, fbSpan(r.X, r.W), fbSpan(r.Y, r.H), shade)
}

// Border draws a 1-framebuffer-pixel outline of a logical rectangle.
func (fb *Framebuffer) Border(r Rect, shade uint8) {
	x, y := r.X/Scale, r.Y/Scale
	w, h := fbSpan(r.X, r.W), fbSpan(r.Y, r.H)
	fb.FillRectFB(x, y, w, 1, shade)
	fb.FillRectFB(x, y+h-1, w, 1, shade)
	fb.FillRectFB(x, y, 1, h, shade)
	fb.FillRectFB(x+w-1, y, 1, h, shade)
}

// fbSpan converts a logical offset+extent to a framebuffer extent covering
// at least one pixel.
func fbSpan(off, ext int) int {
	s := (off+ext+Scale-1)/Scale - off/Scale
	if s < 1 {
		s = 1
	}
	return s
}

// FBRect converts a logical rect into framebuffer pixel coordinates
// (x, y, w, h), used when building masks over rendered regions.
func FBRect(r Rect) (x, y, w, h int) {
	return r.X / Scale, r.Y / Scale, fbSpan(r.X, r.W), fbSpan(r.Y, r.H)
}

// digit font: 3x5 glyphs for '0'-'9' and ':'.
var digitFont = map[byte][5]uint8{
	'0': {0b111, 0b101, 0b101, 0b101, 0b111},
	'1': {0b010, 0b110, 0b010, 0b010, 0b111},
	'2': {0b111, 0b001, 0b111, 0b100, 0b111},
	'3': {0b111, 0b001, 0b111, 0b001, 0b111},
	'4': {0b101, 0b101, 0b111, 0b001, 0b001},
	'5': {0b111, 0b100, 0b111, 0b001, 0b111},
	'6': {0b111, 0b100, 0b111, 0b101, 0b111},
	'7': {0b111, 0b001, 0b010, 0b010, 0b010},
	'8': {0b111, 0b101, 0b111, 0b101, 0b111},
	'9': {0b111, 0b101, 0b111, 0b001, 0b111},
	':': {0b000, 0b010, 0b000, 0b010, 0b000},
}

// DrawDigits renders a string of digits/colons at framebuffer coordinates
// with a 3x5 font (used by the status-bar clock). Returns the width drawn.
func (fb *Framebuffer) DrawDigits(x, y int, s string, shade uint8) int {
	cx := x
	for i := 0; i < len(s); i++ {
		glyph, ok := digitFont[s[i]]
		if !ok {
			continue
		}
		for gy := 0; gy < 5; gy++ {
			for gx := 0; gx < 3; gx++ {
				if glyph[gy]&(1<<(2-gx)) != 0 {
					fb.SetFB(cx+gx, y+gy, shade)
				}
			}
		}
		cx += 4
	}
	return cx - x
}

// DrawPattern fills a logical rect with a deterministic pseudo-text pattern
// derived from seed. Different seeds give visibly different pixel patterns,
// which is how distinct text contents, album thumbnails and news stories are
// told apart by the frame comparison stages without a full font renderer.
func (fb *Framebuffer) DrawPattern(r Rect, seed uint64, lo, hi uint8) {
	x0, y0, w, h := FBRect(r)
	s := seed
	// fbSpan clamps spans to >= 1, but guard w/h here anyway so a future
	// caller with a degenerate rect falls through to the no-op slow path
	// instead of a negative-length make.
	if w > 0 && h > 0 && x0 >= 0 && y0 >= 0 && x0+w <= FBW && y0+h <= FBH {
		// Fully in bounds (the overwhelmingly common case): blit the
		// memoised pattern, generating it once per (seed, size, shades).
		// The generator is the same xorshift sequence as the general path,
		// so the rendered pattern is bit-for-bit identical either way.
		key := patternKey{seed: seed, w: w, h: h, lo: lo, hi: hi}
		pat, ok := fb.patterns[key]
		if !ok {
			pat = make([]uint8, w*h)
			for i := range pat {
				s ^= s << 13
				s ^= s >> 7
				s ^= s << 17
				if s&3 == 0 {
					pat[i] = hi
				} else {
					pat[i] = lo
				}
			}
			if fb.patterns == nil {
				fb.patterns = make(map[patternKey][]uint8)
			}
			if len(fb.patterns) < maxPatternCache {
				fb.patterns[key] = pat
			}
		}
		for yy := 0; yy < h; yy++ {
			copy(fb.Pix[(y0+yy)*FBW+x0:(y0+yy)*FBW+x0+w], pat[yy*w:(yy+1)*w])
		}
		return
	}
	// Partially out of bounds: the pattern stream still advances for every
	// cell of the rect (clipping must not change what lands in-bounds).
	for yy := y0; yy < y0+h; yy++ {
		for xx := x0; xx < x0+w; xx++ {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			if s&3 == 0 {
				fb.SetFB(xx, yy, hi)
			} else {
				fb.SetFB(xx, yy, lo)
			}
		}
	}
}

// Clone returns a copy of the framebuffer contents as a flat byte slice —
// the capture path hands this to the video layer.
func (fb *Framebuffer) Clone() []uint8 {
	out := make([]uint8, len(fb.Pix))
	copy(out, fb.Pix[:])
	return out
}
