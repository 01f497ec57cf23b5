package apps

import (
	"repro/internal/core"
	"repro/internal/screen"
	"repro/internal/sim"
)

// PulseNews models datasets 03 and 05: a tiled news reader whose refresh
// mixes network IO with progressive story parsing, plus scrolling and
// story reading. Its background sync service generates the out-of-lag load
// the paper's issue (1) describes.
type PulseNews struct {
	Base
	screenID string // "feed", "story"
	stories  int    // tiles loaded
	story    int
	offset   int // scroll position
	gen      int // refresh generation (changes tile contents)
}

// PulseNewsName is the registered app name.
const PulseNewsName = "pulsenews"

// NewPulseNews returns the news app.
func NewPulseNews() *PulseNews { return &PulseNews{Base: Base{AppName: PulseNewsName}} }

// Name implements App.
func (p *PulseNews) Name() string { return PulseNewsName }

// Init implements App.
func (p *PulseNews) Init(h Host) {
	p.H = h
	p.InFlight = false
	p.screenID = "feed"
	p.stories = 6
	p.story, p.offset, p.gen = 0, 0, 0
}

// Enter implements App.
func (p *PulseNews) Enter(ix *Interaction) {
	p.screenID = "feed"
	p.H.Invalidate()
	if ix == nil {
		return
	}
	p.stories = 0
	p.H.SetAnimating("pulse.load", true)
	// Six chunks: one per feed tile, so every chunk is visible and the
	// final chunk is the visible completion state.
	ix.Chunks("pulse.coldload", 6, CostAppLaunch/7, func(i int) {
		p.stories = i
	}, func() {
		p.H.SetAnimating("pulse.load", false)
		ix.Finish()
	})
}

// Widget rects for workload scripts.
var (
	PulseRefreshButton = screen.Rect{X: 860, Y: 170, W: 180, H: 110}
	PulseTileRects     = []screen.Rect{
		{X: 40, Y: 320, W: 480, H: 360},
		{X: 560, Y: 320, W: 480, H: 360},
		{X: 40, Y: 720, W: 480, H: 360},
		{X: 560, Y: 720, W: 480, H: 360},
		{X: 40, Y: 1120, W: 480, H: 360},
		{X: 560, Y: 1120, W: 480, H: 360},
	}
)

// HandleTap implements App.
func (p *PulseNews) HandleTap(x, y int) bool {
	if p.InFlight {
		return false
	}
	switch p.screenID {
	case "feed":
		if PulseRefreshButton.Contains(x, y) {
			p.refresh()
			return true
		}
		for i, r := range PulseTileRects {
			if r.Contains(x, y) && i < p.stories {
				p.openStory(i)
				return true
			}
		}
	case "story":
		// Tapping the text area has no effect: a spurious input source.
		return false
	}
	return false
}

// refresh fetches the feed: network IO then progressive parse/render, the
// "simple frequent task" class.
func (p *PulseNews) refresh() {
	ix := p.Begin("refresh", core.CommonTask)
	p.stories = 0
	p.H.Invalidate()
	p.H.SetAnimating("pulse.refresh", true)
	ix.IO("pulse.fetch", 420*sim.Millisecond, func() {
		ix.Chunks("pulse.parse", 6, 80_000_000, func(i int) {
			p.stories = i
		}, func() {
			p.gen++
			p.H.SetAnimating("pulse.refresh", false)
			p.H.Invalidate()
			ix.Finish()
		})
	})
}

func (p *PulseNews) openStory(i int) {
	ix := p.Begin("openStory", core.SimpleFrequent)
	p.story = i
	ix.Work("pulse.render", CostMediumUI+CostSimpleUI, func() {
		p.screenID = "story"
		p.H.Invalidate()
		ix.Finish()
	})
}

// HandleSwipe implements App: feed and story scrolling.
func (p *PulseNews) HandleSwipe(x0, y0, x1, y1 int) bool {
	if p.InFlight {
		return false
	}
	label := "scrollFeed"
	if p.screenID == "story" {
		label = "scrollStory"
	}
	p.Instant(label, core.SimpleFrequent, CostScroll, func() {
		p.offset++
	})
	return true
}

// HandleBack implements App.
func (p *PulseNews) HandleBack() bool {
	if p.InFlight || p.screenID != "story" {
		return false
	}
	p.Instant("backToFeed", core.SimpleFrequent, CostTinyUI, func() {
		p.screenID = "feed"
	})
	return true
}

// Render implements App.
func (p *PulseNews) Render(fb *screen.Framebuffer) {
	fb.FillRect(screen.ContentRect, screen.ShadeBackground)
	switch p.screenID {
	case "feed":
		fb.FillRect(PulseRefreshButton, screen.ShadeWidget)
		for i := 0; i < p.stories && i < len(PulseTileRects); i++ {
			seed := uint64(6000 + p.gen*100 + p.offset*10 + i)
			fb.DrawPattern(PulseTileRects[i], seed, screen.ShadeSurface, screen.ShadeText)
		}
		if p.stories < 6 && p.InFlight {
			screen.DrawSpinner(fb, screen.Rect{X: 440, Y: 800, W: 200, H: 200}, spinPhase(fb.Now()))
		}
	case "story":
		seed := uint64(7000 + p.gen*100 + p.story*10 + p.offset)
		fb.DrawPattern(screen.Rect{X: 40, Y: 200, W: 1000, H: 500}, seed, screen.ShadeSurface, screen.ShadeAccent)
		fb.DrawPattern(screen.Rect{X: 40, Y: 760, W: 1000, H: 800}, seed+1, screen.ShadeBackground, screen.ShadeText)
	}
}

// VolatileRects implements App.
func (p *PulseNews) VolatileRects() []screen.Rect { return nil }

// NewsSyncService periodically refreshes feeds in the background (the Pulse
// News widget of dataset 03): a CPU burst plus network IO every interval.
// This is archetypal "load the user does not care about".
type NewsSyncService struct {
	Interval sim.Duration
	Burst    int64
	h        Host
	tick     func() // one pre-bound loop body; rescheduling never allocates
	onNet    func() // the post-fetch parse burst, equally pre-bound
}

// NewNewsSyncService returns the service with the given period (0 → 15 s).
func NewNewsSyncService(interval sim.Duration) *NewsSyncService {
	if interval <= 0 {
		interval = 15 * sim.Second
	}
	return &NewsSyncService{Interval: interval, Burst: 100_000_000}
}

// Name implements Service.
func (s *NewsSyncService) Name() string { return "newssync" }

// Start implements Service.
func (s *NewsSyncService) Start(h Host) {
	s.h = h
	if s.tick == nil {
		s.onNet = func() { s.h.SpawnWork("newssync.parse", s.Burst, nil) }
		s.tick = func() {
			s.h.SpawnIO("newssync.net", 250*sim.Millisecond, s.onNet)
			s.schedule()
		}
	}
	s.schedule()
}

func (s *NewsSyncService) schedule() {
	jitter := s.h.Rand().Jitter(s.Interval / 5)
	s.h.After(s.Interval+jitter, s.tick)
}
