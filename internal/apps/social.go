package apps

import (
	"repro/internal/core"
	"repro/internal/screen"
	"repro/internal/sim"
)

// Facebook models a social feed: scroll-heavy browsing with likes and
// comment typing. One of the paper's pre-installed apps.
type Facebook struct {
	Base
	screenID string // "feed", "comment"
	loaded   int    // posts visible during cold start
	offset   int
	likes    int
	draft    int
	kbd      *screen.Keyboard
	lastKey  rune
}

// FacebookName is the registered app name.
const FacebookName = "facebook"

// NewFacebook returns the app.
func NewFacebook() *Facebook {
	return &Facebook{Base: Base{AppName: FacebookName}, kbd: screen.NewKeyboard()}
}

// Name implements App.
func (f *Facebook) Name() string { return FacebookName }

// Init implements App.
func (f *Facebook) Init(h Host) {
	f.H = h
	f.InFlight = false
	f.screenID = "feed"
	f.loaded = 3
	f.offset, f.likes, f.draft = 0, 0, 0
	f.lastKey = 0
}

// Enter implements App.
func (f *Facebook) Enter(ix *Interaction) {
	f.screenID = "feed"
	f.H.Invalidate()
	if ix == nil {
		f.loaded = 3
		return
	}
	f.loaded = 0
	ix.IO("facebook.fetch", 350*sim.Millisecond, func() {
		ix.Chunks("facebook.coldload", 3, CostAppLaunch/6, func(i int) {
			f.loaded = i
		}, func() {
			ix.Finish()
		})
	})
}

// Widget rects for workload scripts.
var (
	FacebookLikeButton    = screen.Rect{X: 60, Y: 940, W: 220, H: 100}
	FacebookCommentButton = screen.Rect{X: 340, Y: 940, W: 260, H: 100}
	FacebookPostButton    = screen.Rect{X: 760, Y: 1180, W: 260, H: 110}
)

// Keyboard exposes the layout for scripts.
func (f *Facebook) Keyboard() *screen.Keyboard { return f.kbd }

// HandleTap implements App.
func (f *Facebook) HandleTap(x, y int) bool {
	switch f.screenID {
	case "feed":
		if f.InFlight {
			return false
		}
		if FacebookLikeButton.Contains(x, y) {
			f.Instant("like", core.SimpleFrequent, CostTinyUI, func() { f.likes++ })
			return true
		}
		if FacebookCommentButton.Contains(x, y) {
			f.Instant("openComment", core.SimpleFrequent, CostSimpleUI, func() {
				f.screenID = "comment"
				f.draft = 0
			})
			return true
		}
	case "comment":
		if c := f.kbd.KeyAt(x, y); c != 0 {
			ix := BeginInteraction(f.H, "facebook.key", core.Typing)
			f.lastKey = c
			f.H.Invalidate()
			ix.Work("facebook.key", CostKeyPress, func() {
				f.draft++
				f.lastKey = 0
				f.H.Invalidate()
				ix.Finish()
			})
			return true
		}
		if f.InFlight {
			return false
		}
		if FacebookPostButton.Contains(x, y) && f.draft > 0 {
			ix := f.Begin("post", core.CommonTask)
			ix.Work("facebook.encode", CostSimpleUI, func() {
				ix.IO("facebook.upload", 800*sim.Millisecond, func() {
					ix.Work("facebook.refresh", CostMediumUI, func() {
						f.screenID = "feed"
						f.draft = 0
						f.offset = 0
						f.H.Invalidate()
						ix.Finish()
					})
				})
			})
			return true
		}
	}
	return false
}

// HandleSwipe implements App: infinite feed scroll.
func (f *Facebook) HandleSwipe(x0, y0, x1, y1 int) bool {
	if f.InFlight || f.screenID != "feed" {
		return false
	}
	f.Instant("scroll", core.SimpleFrequent, CostScroll+CostTinyUI, func() {
		f.offset++
	})
	return true
}

// HandleBack implements App.
func (f *Facebook) HandleBack() bool {
	if f.InFlight || f.screenID != "comment" {
		return false
	}
	f.Instant("closeComment", core.SimpleFrequent, CostTinyUI, func() {
		f.screenID = "feed"
	})
	return true
}

// Render implements App.
func (f *Facebook) Render(fb *screen.Framebuffer) {
	fb.FillRect(screen.ContentRect, screen.ShadeBackground)
	switch f.screenID {
	case "feed":
		for i := 0; i < 3 && i < f.loaded; i++ {
			seed := uint64(10000 + f.offset*10 + i)
			fb.DrawPattern(screen.Rect{X: 40, Y: 220 + i*560, W: 1000, H: 420}, seed, screen.ShadeSurface, screen.ShadeText)
		}
		fb.FillRect(FacebookLikeButton, screen.ShadeWidget)
		fb.FillRect(FacebookCommentButton, screen.ShadeWidget)
		if f.likes > 0 {
			fb.FillRect(screen.Rect{X: 60, Y: 870, W: 100 + (f.likes%5)*20, H: 50}, screen.ShadeAccent)
		}
	case "comment":
		fb.FillRect(screen.Rect{X: 40, Y: 260, W: 1000, H: 400}, screen.ShadeSurface)
		for i := 0; i < f.draft && i < 28; i++ {
			fb.FillRect(screen.Rect{X: 60 + (i%14)*70, Y: 300 + (i/14)*100, W: 50, H: 80}, screen.ShadeText)
		}
		fb.FillRect(FacebookPostButton, screen.ShadeWidget)
		f.kbd.Draw(fb, f.lastKey)
	}
}

// VolatileRects implements App.
func (f *Facebook) VolatileRects() []screen.Rect { return nil }

// Gmail models email triage: open a mail, reply with the keyboard, send.
type Gmail struct {
	Base
	screenID string // "inbox", "mail", "compose"
	loaded   int    // inbox rows visible during cold start
	mail     int
	draft    int
	sent     int
	kbd      *screen.Keyboard
	lastKey  rune
}

// GmailName is the registered app name.
const GmailName = "gmail"

// NewGmail returns the app.
func NewGmail() *Gmail {
	return &Gmail{Base: Base{AppName: GmailName}, kbd: screen.NewKeyboard()}
}

// Name implements App.
func (g *Gmail) Name() string { return GmailName }

// Init implements App.
func (g *Gmail) Init(h Host) {
	g.H = h
	g.InFlight = false
	g.screenID = "inbox"
	g.loaded = len(GmailMailRects)
	g.mail, g.draft, g.sent = 0, 0, 0
	g.lastKey = 0
}

// Enter implements App.
func (g *Gmail) Enter(ix *Interaction) {
	g.screenID = "inbox"
	g.H.Invalidate()
	if ix == nil {
		g.loaded = len(GmailMailRects)
		return
	}
	g.loaded = 0
	ix.IO("gmail.sync", 300*sim.Millisecond, func() {
		ix.Chunks("gmail.coldload", 4, CostAppLaunch/12, func(i int) {
			g.loaded = i
		}, func() {
			ix.Finish()
		})
	})
}

// Widget rects for workload scripts.
var (
	GmailMailRects = []screen.Rect{
		{X: 40, Y: 240, W: 1000, H: 180},
		{X: 40, Y: 460, W: 1000, H: 180},
		{X: 40, Y: 680, W: 1000, H: 180},
		{X: 40, Y: 900, W: 1000, H: 180},
	}
	GmailReplyButton = screen.Rect{X: 60, Y: 1450, W: 300, H: 130}
	GmailSendButton  = screen.Rect{X: 760, Y: 1180, W: 260, H: 110}
)

// Keyboard exposes the layout for scripts.
func (g *Gmail) Keyboard() *screen.Keyboard { return g.kbd }

// HandleTap implements App.
func (g *Gmail) HandleTap(x, y int) bool {
	switch g.screenID {
	case "inbox":
		if g.InFlight {
			return false
		}
		for i, r := range GmailMailRects {
			if r.Contains(x, y) {
				ix := g.Begin("openMail", core.SimpleFrequent)
				g.mail = i
				ix.Work("gmail.render", CostMediumUI, func() {
					g.screenID = "mail"
					g.H.Invalidate()
					ix.Finish()
				})
				return true
			}
		}
	case "mail":
		if g.InFlight {
			return false
		}
		if GmailReplyButton.Contains(x, y) {
			g.Instant("reply", core.SimpleFrequent, CostSimpleUI, func() {
				g.screenID = "compose"
				g.draft = 0
			})
			return true
		}
	case "compose":
		if c := g.kbd.KeyAt(x, y); c != 0 {
			ix := BeginInteraction(g.H, "gmail.key", core.Typing)
			g.lastKey = c
			g.H.Invalidate()
			ix.Work("gmail.key", CostKeyPress, func() {
				g.draft++
				g.lastKey = 0
				g.H.Invalidate()
				ix.Finish()
			})
			return true
		}
		if g.InFlight {
			return false
		}
		if GmailSendButton.Contains(x, y) && g.draft > 0 {
			ix := g.Begin("send", core.CommonTask)
			ix.Work("gmail.mime", CostSimpleUI, func() {
				ix.IO("gmail.smtp", 900*sim.Millisecond, func() {
					ix.Work("gmail.refreshThread", CostSimpleUI, func() {
						g.screenID = "mail"
						g.sent++
						g.H.Invalidate()
						ix.Finish()
					})
				})
			})
			return true
		}
	}
	return false
}

// HandleSwipe implements App: inbox scroll.
func (g *Gmail) HandleSwipe(x0, y0, x1, y1 int) bool {
	if g.InFlight || g.screenID != "inbox" {
		return false
	}
	g.Instant("scroll", core.SimpleFrequent, CostScroll, func() { g.mail = (g.mail + 1) % 8 })
	return true
}

// HandleBack implements App.
func (g *Gmail) HandleBack() bool {
	if g.InFlight {
		return false
	}
	switch g.screenID {
	case "mail":
		g.Instant("backToInbox", core.SimpleFrequent, CostTinyUI, func() { g.screenID = "inbox" })
	case "compose":
		g.Instant("discard", core.SimpleFrequent, CostTinyUI, func() { g.screenID = "mail" })
	default:
		return false
	}
	return true
}

// Render implements App.
func (g *Gmail) Render(fb *screen.Framebuffer) {
	fb.FillRect(screen.ContentRect, screen.ShadeBackground)
	switch g.screenID {
	case "inbox":
		for i, r := range GmailMailRects {
			if i >= g.loaded {
				break
			}
			fb.DrawPattern(r, uint64(11000+g.mail*10+i), screen.ShadeSurface, screen.ShadeText)
		}
	case "mail":
		fb.DrawPattern(screen.Rect{X: 40, Y: 240, W: 1000, H: 1100}, uint64(11500+g.mail+g.sent*100), screen.ShadeBackground, screen.ShadeText)
		fb.FillRect(GmailReplyButton, screen.ShadeWidget)
	case "compose":
		fb.FillRect(screen.Rect{X: 40, Y: 260, W: 1000, H: 400}, screen.ShadeSurface)
		for i := 0; i < g.draft && i < 28; i++ {
			fb.FillRect(screen.Rect{X: 60 + (i%14)*70, Y: 320 + (i/14)*100, W: 50, H: 80}, screen.ShadeText)
		}
		fb.FillRect(GmailSendButton, screen.ShadeWidget)
		g.kbd.Draw(fb, g.lastKey)
	}
}

// VolatileRects implements App.
func (g *Gmail) VolatileRects() []screen.Rect { return nil }
