package screen

import "repro/internal/sim"

// Shades used across the UI so that widget states are distinguishable in the
// captured video.
const (
	ShadeBackground uint8 = 24
	ShadeSurface    uint8 = 48
	ShadeWidget     uint8 = 96
	ShadePressed    uint8 = 160
	ShadeAccent     uint8 = 200
	ShadeText       uint8 = 230
	ShadeStatusBar  uint8 = 12
)

// StatusBarRect is the logical region of the status bar; its right end holds
// the clock the paper masks out in Fig. 8. Seven framebuffer rows tall so
// the 3x5 clock glyphs fit with padding.
var StatusBarRect = Rect{X: 0, Y: 0, W: LogicalW, H: statusBarRows * Scale}

// statusBarRows is the status bar's height in framebuffer rows.
const statusBarRows = 7

// ClockRect is the logical region of the status-bar clock. Annotation
// entries apply a mask over exactly this region, reproducing the paper's
// "mask out the clock" example. It is sized so the 3x5 HH:MM glyphs fit in
// the downscaled framebuffer (5 glyphs × 4 px plus padding = 22 fb pixels).
var ClockRect = Rect{X: LogicalW - 440, Y: 0, W: 440, H: 140}

// NavBarRect is the bottom navigation bar (back / home / recents).
var NavBarRect = Rect{X: 0, Y: LogicalH - 120, W: LogicalW, H: 120}

// HomeButtonRect is the home button inside the nav bar.
var HomeButtonRect = Rect{X: LogicalW/2 - 90, Y: LogicalH - 120, W: 180, H: 120}

// BackButtonRect is the back button inside the nav bar.
var BackButtonRect = Rect{X: 90, Y: LogicalH - 120, W: 180, H: 120}

// ContentRect is the app content region between status bar and nav bar.
var ContentRect = Rect{X: 0, Y: 140, W: LogicalW, H: LogicalH - 260}

// DrawStatusBar renders the status bar including the live HH:MM clock. The
// band overwrites every pixel of its rows and changes only with the minute,
// so the framebuffer keeps the last minute's band and a redraw within that
// minute copies it. It takes the time as an argument rather than reading
// fb.Now: the device's minute tick invalidates the screen at each minute
// boundary, so the clock never needs a redraw every vsync.
func DrawStatusBar(fb *Framebuffer, now sim.Time) {
	totalMin := int64(now) / int64(sim.Minute)
	band := fb.Pix[:len(fb.status.band)]
	if fb.status.ok && fb.status.minute == totalMin {
		copy(band, fb.status.band[:])
		return
	}
	drawStatusBand(fb, totalMin)
	copy(fb.status.band[:], band)
	fb.status.minute, fb.status.ok = totalMin, true
}

// drawStatusBand rasterises the status bar showing minute totalMin.
func drawStatusBand(fb *Framebuffer, totalMin int64) {
	fb.FillRect(StatusBarRect, ShadeStatusBar)
	hh := (totalMin / 60) % 24
	mm := totalMin % 60
	clock := []byte{byte('0' + hh/10), byte('0' + hh%10), ':', byte('0' + mm/10), byte('0' + mm%10)}
	cx, cy, _, _ := FBRect(ClockRect)
	fb.DrawDigits(cx+1, cy+1, string(clock), ShadeText)
	// Static battery and signal glyphs at the left of the clock.
	fb.FillRectFB(cx-4, cy+1, 2, 4, ShadeText)
	fb.FillRectFB(cx-8, cy+2, 2, 3, ShadeWidget)
}

// DrawNavBar renders the navigation bar with back/home affordances: a copy
// of the band rendered once, since it overwrites every pixel of its rows and
// never changes.
func DrawNavBar(fb *Framebuffer) {
	copy(fb.Pix[len(fb.Pix)-len(navBand):], navBand)
}

// navBand is the rendered navigation bar, the bottom rows of the screen.
var navBand = func() []uint8 {
	var fb Framebuffer
	fb.FillRect(NavBarRect, ShadeStatusBar)
	fb.FillRect(Rect{X: HomeButtonRect.X + 60, Y: HomeButtonRect.Y + 40, W: 60, H: 40}, ShadeWidget)
	fb.FillRect(Rect{X: BackButtonRect.X + 60, Y: BackButtonRect.Y + 40, W: 60, H: 40}, ShadeWidget)
	_, y, _, _ := FBRect(NavBarRect)
	return fb.Pix[y*FBW:]
}()

// DrawSpinner renders a loading spinner with the given animation phase; each
// distinct phase produces a distinct frame, so the video shows continuous
// change while an app loads — exactly the "changing frames" period the
// suggester skips over.
func DrawSpinner(fb *Framebuffer, r Rect, phase int) {
	fb.FillRect(r, ShadeSurface)
	x, y, w, h := FBRect(r)
	cx, cy := x+w/2, y+h/2
	offs := [8][2]int{{0, -2}, {1, -1}, {2, 0}, {1, 1}, {0, 2}, {-1, 1}, {-2, 0}, {-1, -1}}
	for i, o := range offs {
		shade := ShadeWidget
		if i == phase%8 {
			shade = ShadeText
		}
		fb.SetFB(cx+o[0], cy+o[1], shade)
	}
}

// DrawProgressBar renders a horizontal progress bar filled to frac (0..1).
func DrawProgressBar(fb *Framebuffer, r Rect, frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	fb.FillRect(r, ShadeSurface)
	fill := Rect{X: r.X, Y: r.Y, W: int(float64(r.W) * frac), H: r.H}
	if fill.W > 0 {
		fb.FillRect(fill, ShadeAccent)
	}
	fb.Border(r, ShadeWidget)
}

// Key is one key of the on-screen keyboard.
type Key struct {
	R Rect
	C rune
}

// Keyboard is a minimal QWERTY layout occupying the bottom of the content
// area, used by the typing-heavy workloads (Logo Quiz answers, messages).
type Keyboard struct {
	Keys []Key
	R    Rect
	// strips memoises the rendered keyboard band per pressed key. Draw
	// overwrites every pixel of R, so the band depends only on which key is
	// highlighted — repeat draws become one contiguous copy instead of ~40
	// rectangle fills. Pure memoization: never changes what is drawn.
	strips map[rune][]uint8
}

// NewKeyboard lays out a 3-row QWERTY plus a space row.
func NewKeyboard() *Keyboard {
	rows := []string{"qwertyuiop", "asdfghjkl", "zxcvbnm"}
	kb := &Keyboard{R: Rect{X: 0, Y: LogicalH - 620, W: LogicalW, H: 500}}
	keyH := 120
	for ri, row := range rows {
		keyW := LogicalW / len(row)
		xOff := (LogicalW - keyW*len(row)) / 2
		for ci, c := range row {
			kb.Keys = append(kb.Keys, Key{
				R: Rect{X: xOff + ci*keyW, Y: kb.R.Y + ri*keyH, W: keyW, H: keyH},
				C: c,
			})
		}
	}
	// Space bar.
	kb.Keys = append(kb.Keys, Key{
		R: Rect{X: 240, Y: kb.R.Y + 3*keyH, W: 600, H: keyH},
		C: ' ',
	})
	return kb
}

// KeyAt returns the key under the logical point, or 0 if none.
func (kb *Keyboard) KeyAt(x, y int) rune {
	for _, k := range kb.Keys {
		if k.R.Contains(x, y) {
			return k.C
		}
	}
	return 0
}

// KeyRect returns the rect for a character's key, or false if not present.
func (kb *Keyboard) KeyRect(c rune) (Rect, bool) {
	for _, k := range kb.Keys {
		if k.C == c {
			return k.R, true
		}
	}
	return Rect{}, false
}

// Draw renders the keyboard; pressed highlights one key (0 for none).
func (kb *Keyboard) Draw(fb *Framebuffer, pressed rune) {
	x0, y0, w, h := FBRect(kb.R)
	if x0 != 0 || w != FBW {
		// Non-full-width layout (none today): no contiguous band to memoise.
		kb.drawDirect(fb, pressed)
		return
	}
	band := fb.Pix[y0*FBW : (y0+h)*FBW]
	if strip, ok := kb.strips[pressed]; ok {
		copy(band, strip)
		return
	}
	kb.drawDirect(fb, pressed)
	strip := make([]uint8, len(band))
	copy(strip, band)
	if kb.strips == nil {
		kb.strips = make(map[rune][]uint8)
	}
	kb.strips[pressed] = strip
}

// drawDirect rasterises the keyboard rectangle by rectangle.
func (kb *Keyboard) drawDirect(fb *Framebuffer, pressed rune) {
	fb.FillRect(kb.R, ShadeBackground)
	for _, k := range kb.Keys {
		shade := ShadeWidget
		if k.C == pressed {
			shade = ShadePressed
		}
		inner := Rect{X: k.R.X + 8, Y: k.R.Y + 8, W: k.R.W - 16, H: k.R.H - 16}
		fb.FillRect(inner, shade)
	}
}
