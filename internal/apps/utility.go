package apps

import (
	"repro/internal/core"
	"repro/internal/screen"
	"repro/internal/sim"
)

// MusicPlayer controls background music playback. Playback itself runs as
// MusicService — steady decode load outside any interaction lag, the kind of
// work a frequency governor should run at the energy-optimal frequency.
type MusicPlayer struct {
	Base
	loading int // cold-start progress (0 = loaded)
	playing bool
	track   int
	Service *MusicService
}

// MusicPlayerName is the registered app name.
const MusicPlayerName = "musicplayer"

// NewMusicPlayer returns the player bound to a music service.
func NewMusicPlayer(svc *MusicService) *MusicPlayer {
	return &MusicPlayer{Base: Base{AppName: MusicPlayerName}, Service: svc}
}

// Name implements App.
func (m *MusicPlayer) Name() string { return MusicPlayerName }

// Init implements App.
func (m *MusicPlayer) Init(h Host) {
	m.H = h
	m.InFlight = false
	m.playing = false
	m.track = 0
}

// Enter implements App.
func (m *MusicPlayer) Enter(ix *Interaction) {
	m.H.Invalidate()
	if ix == nil {
		m.loading = 0
		return
	}
	m.loading = 1
	ix.Chunks("music.coldload", 4, CostAppLaunch/14, func(i int) {
		m.loading = i
	}, func() {
		m.loading = 0
		m.H.Invalidate()
		ix.Finish()
	})
}

// Widget rects for workload scripts.
var (
	MusicPlayButton = screen.Rect{X: 440, Y: 1150, W: 200, H: 200}
	MusicNextButton = screen.Rect{X: 720, Y: 1180, W: 160, H: 140}
	// MusicProgressRect is the playback progress bar; it advances during
	// playback independent of interactions, so annotations mask it.
	MusicProgressRect = screen.Rect{X: 100, Y: 1000, W: 880, H: 70}
)

// HandleTap implements App.
func (m *MusicPlayer) HandleTap(x, y int) bool {
	if m.InFlight {
		return false
	}
	if MusicPlayButton.Contains(x, y) {
		m.Instant("playPause", core.SimpleFrequent, CostSimpleUI, func() {
			m.playing = !m.playing
			if m.Service != nil {
				m.Service.SetPlaying(m.playing)
			}
		})
		return true
	}
	if MusicNextButton.Contains(x, y) {
		ix := m.Begin("nextTrack", core.SimpleFrequent)
		ix.IO("music.open", 120*sim.Millisecond, func() {
			ix.Work("music.prime", CostSimpleUI, func() {
				m.track++
				m.H.Invalidate()
				ix.Finish()
			})
		})
		return true
	}
	return false
}

// HandleSwipe implements App.
func (m *MusicPlayer) HandleSwipe(x0, y0, x1, y1 int) bool { return false }

// HandleBack implements App.
func (m *MusicPlayer) HandleBack() bool { return false }

// Render implements App.
func (m *MusicPlayer) Render(fb *screen.Framebuffer) {
	fb.FillRect(screen.ContentRect, screen.ShadeBackground)
	if m.loading > 0 {
		screen.DrawProgressBar(fb, screen.Rect{X: 140, Y: 900, W: 800, H: 90}, float64(m.loading)/4)
		return
	}
	fb.DrawPattern(screen.Rect{X: 240, Y: 300, W: 600, H: 600}, uint64(12000+m.track), screen.ShadeSurface, screen.ShadeAccent)
	shade := screen.ShadeWidget
	if m.playing {
		shade = screen.ShadeAccent
	}
	fb.FillRect(MusicPlayButton, shade)
	fb.FillRect(MusicNextButton, screen.ShadeWidget)
	frac := 0.0
	if m.playing {
		// Coarse 10 s-granularity progress so still periods exist.
		frac = float64(int64(fb.Now())/int64(10*sim.Second)%20) / 20
	}
	screen.DrawProgressBar(fb, MusicProgressRect, frac)
}

// VolatileRects implements App: the progress bar moves on its own.
func (m *MusicPlayer) VolatileRects() []screen.Rect {
	return []screen.Rect{MusicProgressRect}
}

// Calculator is the lightest app: every interaction is a tiny typing-class
// key tap.
type Calculator struct {
	Base
	loaded  bool
	display int
}

// CalculatorName is the registered app name.
const CalculatorName = "calculator"

// NewCalculator returns the app.
func NewCalculator() *Calculator { return &Calculator{Base: Base{AppName: CalculatorName}} }

// Name implements App.
func (c *Calculator) Name() string { return CalculatorName }

// Init implements App.
func (c *Calculator) Init(h Host) {
	c.H = h
	c.InFlight = false
	c.loaded = true
	c.display = 0
}

// Enter implements App.
func (c *Calculator) Enter(ix *Interaction) {
	c.H.Invalidate()
	if ix == nil {
		c.loaded = true
		return
	}
	c.loaded = false
	ix.Work("calc.coldload", CostAppLaunch/9, func() {
		c.loaded = true
		c.H.Invalidate()
		ix.Finish()
	})
}

// CalcKeyRect returns the rect of calculator key 0-9 (4x3 grid), for
// workload scripts.
func CalcKeyRect(digit int) screen.Rect {
	col, row := digit%3, digit/3
	return screen.Rect{X: 90 + col*320, Y: 700 + row*300, W: 280, H: 260}
}

// HandleTap implements App.
func (c *Calculator) HandleTap(x, y int) bool {
	for d := 0; d <= 9; d++ {
		if CalcKeyRect(d).Contains(x, y) {
			d := d
			ix := BeginInteraction(c.H, "calculator.key", core.Typing)
			ix.Work("calc.key", CostKeyPress, func() {
				c.display = c.display*10%100000 + d
				c.H.Invalidate()
				ix.Finish()
			})
			return true
		}
	}
	return false
}

// HandleSwipe implements App.
func (c *Calculator) HandleSwipe(x0, y0, x1, y1 int) bool { return false }

// HandleBack implements App.
func (c *Calculator) HandleBack() bool { return false }

// Render implements App.
func (c *Calculator) Render(fb *screen.Framebuffer) {
	fb.FillRect(screen.ContentRect, screen.ShadeBackground)
	if !c.loaded {
		return // splash: blank content until the app is up
	}
	fb.FillRect(screen.Rect{X: 60, Y: 300, W: 960, H: 260}, screen.ShadeSurface)
	fb.DrawPattern(screen.Rect{X: 80, Y: 340, W: 920, H: 180}, uint64(13000+c.display), screen.ShadeSurface, screen.ShadeText)
	for d := 0; d <= 9; d++ {
		fb.FillRect(CalcKeyRect(d), screen.ShadeWidget)
	}
}

// VolatileRects implements App.
func (c *Calculator) VolatileRects() []screen.Rect { return nil }

// PlayStore models app browsing and installation: search, open an app page,
// install with a long download (IO) and unpack (CPU) phase.
type PlayStore struct {
	Base
	screenID    string // "front", "detail"
	loading     int    // cold-start progress (0 = loaded)
	scroll      int
	installing  bool
	installFrac float64
	installed   int
}

// PlayStoreName is the registered app name.
const PlayStoreName = "playstore"

// NewPlayStore returns the app.
func NewPlayStore() *PlayStore { return &PlayStore{Base: Base{AppName: PlayStoreName}} }

// Name implements App.
func (p *PlayStore) Name() string { return PlayStoreName }

// Init implements App.
func (p *PlayStore) Init(h Host) {
	p.H = h
	p.InFlight = false
	p.screenID = "front"
	p.scroll = 0
	p.installing = false
	p.installed = 0
}

// Enter implements App.
func (p *PlayStore) Enter(ix *Interaction) {
	p.screenID = "front"
	p.H.Invalidate()
	if ix == nil {
		p.loading = 0
		return
	}
	p.loading = 1
	ix.IO("playstore.fetch", 500*sim.Millisecond, func() {
		ix.Chunks("playstore.coldload", 4, CostAppLaunch/10, func(i int) {
			p.loading = i
		}, func() {
			p.loading = 0
			p.H.Invalidate()
			ix.Finish()
		})
	})
}

// Widget rects for workload scripts.
var (
	StoreAppCardRect   = screen.Rect{X: 60, Y: 340, W: 960, H: 360}
	StoreInstallButton = screen.Rect{X: 640, Y: 820, W: 380, H: 150}
)

// HandleTap implements App.
func (p *PlayStore) HandleTap(x, y int) bool {
	if p.InFlight {
		return false
	}
	switch p.screenID {
	case "front":
		if StoreAppCardRect.Contains(x, y) {
			ix := p.Begin("openDetail", core.SimpleFrequent)
			ix.IO("playstore.page", 300*sim.Millisecond, func() {
				ix.Work("playstore.render", CostMediumUI, func() {
					p.screenID = "detail"
					p.H.Invalidate()
					ix.Finish()
				})
			})
			return true
		}
	case "detail":
		if StoreInstallButton.Contains(x, y) && !p.installing {
			ix := p.Begin("install", core.ComplexTask)
			p.installing = true
			p.installFrac = 0
			p.H.Invalidate()
			p.H.SetAnimating("playstore.install", true)
			ix.IO("playstore.download", 2500*sim.Millisecond, func() {
				p.installFrac = 0.6
				p.H.Invalidate()
				ix.Chunks("playstore.unpack", 3, CostHeavyUI/2, func(i int) {
					p.installFrac = 0.6 + float64(float64(i)*0.13) // no fused multiply-add
				}, func() {
					p.installing = false
					p.installed++
					p.H.SetAnimating("playstore.install", false)
					p.H.Invalidate()
					ix.Finish()
				})
			})
			return true
		}
	}
	return false
}

// HandleSwipe implements App: browsing the front page.
func (p *PlayStore) HandleSwipe(x0, y0, x1, y1 int) bool {
	if p.InFlight || p.screenID != "front" {
		return false
	}
	p.Instant("scroll", core.SimpleFrequent, CostScroll, func() { p.scroll++ })
	return true
}

// HandleBack implements App.
func (p *PlayStore) HandleBack() bool {
	if p.InFlight || p.screenID != "detail" {
		return false
	}
	p.Instant("backToFront", core.SimpleFrequent, CostTinyUI, func() { p.screenID = "front" })
	return true
}

// Render implements App.
func (p *PlayStore) Render(fb *screen.Framebuffer) {
	fb.FillRect(screen.ContentRect, screen.ShadeBackground)
	switch p.screenID {
	case "front":
		if p.loading > 0 {
			screen.DrawProgressBar(fb, screen.Rect{X: 140, Y: 900, W: 800, H: 90}, float64(p.loading)/4)
			return
		}
		fb.DrawPattern(StoreAppCardRect, uint64(14000+p.scroll), screen.ShadeSurface, screen.ShadeAccent)
	case "detail":
		fb.DrawPattern(screen.Rect{X: 60, Y: 260, W: 960, H: 480}, uint64(14100+p.installed), screen.ShadeSurface, screen.ShadeText)
		fb.FillRect(StoreInstallButton, screen.ShadeWidget)
		if p.installing {
			screen.DrawProgressBar(fb, screen.Rect{X: 100, Y: 1050, W: 880, H: 80}, p.installFrac)
		}
	}
}

// VolatileRects implements App.
func (p *PlayStore) VolatileRects() []screen.Rect { return nil }

// Browser loads pages progressively (network + layout chunks). The paper
// defers truly non-deterministic network workloads to future work; our pages
// are deterministic stand-ins, matching its controlled setting.
type Browser struct {
	Base
	page    int
	loaded  int
	scrollY int
}

// BrowserName is the registered app name.
const BrowserName = "browser"

// NewBrowser returns the app.
func NewBrowser() *Browser { return &Browser{Base: Base{AppName: BrowserName}} }

// Name implements App.
func (b *Browser) Name() string { return BrowserName }

// Init implements App.
func (b *Browser) Init(h Host) {
	b.H = h
	b.InFlight = false
	b.page, b.loaded, b.scrollY = 0, 6, 0
}

// Enter implements App.
func (b *Browser) Enter(ix *Interaction) {
	b.H.Invalidate()
	if ix == nil {
		b.loaded = 6
		return
	}
	b.loaded = 0
	ix.Chunks("browser.coldload", 6, CostAppLaunch/10, func(i int) {
		b.loaded = i
	}, func() {
		ix.Finish()
	})
}

// BrowserURLBar is the tap target that loads the next page.
var BrowserURLBar = screen.Rect{X: 60, Y: 180, W: 960, H: 110}

// HandleTap implements App.
func (b *Browser) HandleTap(x, y int) bool {
	if b.InFlight {
		return false
	}
	if BrowserURLBar.Contains(x, y) {
		ix := b.Begin("loadPage", core.CommonTask)
		b.page++
		b.loaded = 0
		b.scrollY = 0
		b.H.Invalidate()
		b.H.SetAnimating("browser.load", true)
		ix.IO("browser.net", 550*sim.Millisecond, func() {
			ix.Chunks("browser.layout", 6, 110_000_000, func(i int) {
				b.loaded = i
			}, func() {
				b.H.SetAnimating("browser.load", false)
				ix.Finish()
			})
		})
		return true
	}
	return false
}

// HandleSwipe implements App: page scrolling with rendering work.
func (b *Browser) HandleSwipe(x0, y0, x1, y1 int) bool {
	if b.InFlight {
		return false
	}
	b.Instant("scroll", core.SimpleFrequent, CostScroll+CostTinyUI, func() {
		b.scrollY++
	})
	return true
}

// HandleBack implements App.
func (b *Browser) HandleBack() bool {
	if b.InFlight || b.page == 0 {
		return false
	}
	b.Instant("backPage", core.SimpleFrequent, CostSimpleUI, func() {
		b.page--
		b.loaded = 6
		b.scrollY = 0
	})
	return true
}

// Render implements App.
func (b *Browser) Render(fb *screen.Framebuffer) {
	fb.FillRect(screen.ContentRect, screen.ShadeBackground)
	fb.FillRect(BrowserURLBar, screen.ShadeSurface)
	for i := 0; i < b.loaded && i < 6; i++ {
		seed := uint64(15000 + b.page*100 + b.scrollY*10 + i)
		fb.DrawPattern(screen.Rect{X: 40, Y: 340 + i*230, W: 1000, H: 200}, seed, screen.ShadeBackground, screen.ShadeText)
	}
	if b.loaded < 6 && b.InFlight {
		screen.DrawSpinner(fb, screen.Rect{X: 440, Y: 900, W: 200, H: 200}, spinPhase(fb.Now()))
	}
}

// VolatileRects implements App.
func (b *Browser) VolatileRects() []screen.Rect { return nil }
