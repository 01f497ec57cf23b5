package apps

import (
	"repro/internal/core"
	"repro/internal/screen"
	"repro/internal/sim"
)

// Messaging models the multimedia text messaging part of dataset 03:
// composing messages on the keyboard, attaching an image, and sending. The
// send interaction is the paper's §II-E example of an ending that "looks
// like the beginning": a progress overlay appears and disappears, returning
// to the same thread screen, so the matcher must look for the second
// occurrence of the annotated image.
type Messaging struct {
	Base
	screenID string // "threads", "thread", "picker"
	thread   int
	loaded   int // thread-list rows visible during cold start
	draft    []rune
	sent     int
	scroll   int
	attached bool
	sending  bool
	kbd      *screen.Keyboard
	lastKey  rune
}

// MessagingName is the registered app name.
const MessagingName = "messaging"

// NewMessaging returns the messaging app.
func NewMessaging() *Messaging {
	return &Messaging{Base: Base{AppName: MessagingName}, kbd: screen.NewKeyboard()}
}

// Name implements App.
func (m *Messaging) Name() string { return MessagingName }

// Init implements App.
func (m *Messaging) Init(h Host) {
	m.H = h
	m.InFlight = false
	m.screenID = "threads"
	m.thread = 0
	m.loaded = len(MessagingThreadRects)
	m.draft = m.draft[:0]
	m.sent, m.scroll = 0, 0
	m.attached, m.sending = false, false
	m.lastKey = 0
}

// Enter implements App.
func (m *Messaging) Enter(ix *Interaction) {
	m.screenID = "threads"
	m.H.Invalidate()
	if ix == nil {
		m.loaded = len(MessagingThreadRects)
		return
	}
	m.loaded = 0
	ix.Chunks("messaging.coldload", 3, CostAppLaunch/10, func(i int) {
		m.loaded = i
	}, func() {
		ix.Finish()
	})
}

// Widget rects for workload scripts.
var (
	MessagingThreadRects = []screen.Rect{
		{X: 40, Y: 260, W: 1000, H: 200},
		{X: 40, Y: 500, W: 1000, H: 200},
		{X: 40, Y: 740, W: 1000, H: 200},
	}
	MessagingAttachButton = screen.Rect{X: 40, Y: 1180, W: 200, H: 110}
	MessagingSendButton   = screen.Rect{X: 820, Y: 1180, W: 220, H: 110}
	MessagingPickerRects  = []screen.Rect{
		{X: 90, Y: 400, W: 420, H: 420},
		{X: 570, Y: 400, W: 420, H: 420},
		{X: 90, Y: 900, W: 420, H: 420},
		{X: 570, Y: 900, W: 420, H: 420},
	}
	// MessagingProgressRect is the send-progress overlay; it is where the
	// transient "sending" bar appears and then disappears.
	MessagingProgressRect = screen.Rect{X: 240, Y: 760, W: 600, H: 120}
)

// Keyboard exposes the layout for scripts.
func (m *Messaging) Keyboard() *screen.Keyboard { return m.kbd }

// HandleTap implements App.
func (m *Messaging) HandleTap(x, y int) bool {
	switch m.screenID {
	case "threads":
		if m.InFlight {
			return false
		}
		for i, r := range MessagingThreadRects {
			if r.Contains(x, y) {
				m.openThread(i)
				return true
			}
		}
	case "thread":
		if c := m.kbd.KeyAt(x, y); c != 0 {
			m.keyPress(c)
			return true
		}
		if m.InFlight {
			return false
		}
		if MessagingAttachButton.Contains(x, y) {
			m.Instant("openPicker", core.SimpleFrequent, CostMediumUI, func() {
				m.screenID = "picker"
			})
			return true
		}
		if MessagingSendButton.Contains(x, y) && (len(m.draft) > 0 || m.attached) {
			m.send()
			return true
		}
	case "picker":
		if m.InFlight {
			return false
		}
		for i, r := range MessagingPickerRects {
			if r.Contains(x, y) {
				_ = i
				ix := m.Begin("attachImage", core.SimpleFrequent)
				ix.Work("messaging.thumb", CostMediumUI, func() {
					m.attached = true
					m.screenID = "thread"
					m.H.Invalidate()
					ix.Finish()
				})
				return true
			}
		}
	}
	return false
}

func (m *Messaging) keyPress(c rune) {
	ix := BeginInteraction(m.H, m.AppName+".key", core.Typing)
	m.lastKey = c
	m.H.Invalidate()
	ix.Work("messaging.key", CostKeyPress, func() {
		m.draft = append(m.draft, c)
		m.lastKey = 0
		m.H.Invalidate()
		ix.Finish()
	})
}

func (m *Messaging) openThread(i int) {
	ix := m.Begin("openThread", core.SimpleFrequent)
	m.thread = i
	ix.Work("messaging.load", CostMediumUI, func() {
		m.screenID = "thread"
		m.H.Invalidate()
		ix.Finish()
	})
}

// send shows a progress overlay while the MMS uploads, then returns to the
// exact same thread view (plus the sent message) — the second-occurrence
// annotation case.
func (m *Messaging) send() {
	ix := m.Begin("send", core.CommonTask)
	m.sending = true
	m.H.Invalidate()
	m.H.SetAnimating("messaging.send", true)
	ix.Work("messaging.encode", CostSimpleUI*2, func() {
		ix.IO("messaging.upload", 1300*sim.Millisecond, func() {
			ix.Work("messaging.finish", CostTinyUI, func() {
				m.sending = false
				m.sent++
				m.draft = nil
				m.attached = false
				m.H.SetAnimating("messaging.send", false)
				m.H.Invalidate()
				ix.Finish()
			})
		})
	})
}

// HandleSwipe implements App: scrolling a thread.
func (m *Messaging) HandleSwipe(x0, y0, x1, y1 int) bool {
	if m.InFlight || m.screenID != "thread" {
		return false
	}
	m.Instant("scroll", core.SimpleFrequent, CostScroll, func() { m.scroll++ })
	return true
}

// HandleBack implements App.
func (m *Messaging) HandleBack() bool {
	if m.InFlight {
		return false
	}
	switch m.screenID {
	case "thread":
		m.Instant("backToThreads", core.SimpleFrequent, CostTinyUI, func() {
			m.screenID = "threads"
		})
	case "picker":
		m.Instant("closePicker", core.SimpleFrequent, CostTinyUI, func() {
			m.screenID = "thread"
		})
	default:
		return false
	}
	return true
}

// Render implements App.
func (m *Messaging) Render(fb *screen.Framebuffer) {
	fb.FillRect(screen.ContentRect, screen.ShadeBackground)
	switch m.screenID {
	case "threads":
		for i, r := range MessagingThreadRects {
			if i >= m.loaded {
				break
			}
			fb.DrawPattern(r, uint64(8000+i), screen.ShadeSurface, screen.ShadeText)
		}
	case "thread":
		// Conversation bubbles: one per sent message, shifted by scroll.
		for i := 0; i < m.sent && i < 5; i++ {
			y := 280 + i*160 - (m.scroll%3)*40
			fb.FillRect(screen.Rect{X: 400, Y: y, W: 620, H: 120}, screen.ShadeAccent)
		}
		fb.DrawPattern(screen.Rect{X: 60, Y: 280, W: 300, H: 400}, uint64(8200+m.thread*10+m.scroll), screen.ShadeBackground, screen.ShadeSurface)
		// Draft field with typed characters; blocks wrap to a second row so
		// every keystroke changes the screen (a lag ending must always be
		// visually distinct from the previous state).
		fb.FillRect(screen.Rect{X: 260, Y: 1180, W: 540, H: 110}, screen.ShadeSurface)
		for i := range m.draft {
			if i >= 16 {
				break
			}
			fb.FillRect(screen.Rect{X: 280 + (i%8)*60, Y: 1200 + (i/8)*50, W: 40, H: 40}, screen.ShadeText)
		}
		if m.attached {
			fb.FillRect(screen.Rect{X: 400, Y: 980, W: 300, H: 160}, screen.ShadePressed)
		}
		fb.FillRect(MessagingAttachButton, screen.ShadeWidget)
		fb.FillRect(MessagingSendButton, screen.ShadeWidget)
		if m.sending {
			screen.DrawProgressBar(fb, MessagingProgressRect, float64(spinPhase(fb.Now())%10)/10)
		}
		m.kbd.Draw(fb, m.lastKey)
	case "picker":
		for i, r := range MessagingPickerRects {
			fb.DrawPattern(r, uint64(8100+i), screen.ShadeSurface, screen.ShadeAccent)
		}
	}
}

// VolatileRects implements App.
func (m *Messaging) VolatileRects() []screen.Rect { return nil }
