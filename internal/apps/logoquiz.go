package apps

import (
	"repro/internal/core"
	"repro/internal/screen"
)

// LogoQuiz models dataset 02: a logo-guessing game dominated by on-screen
// keyboard typing (which is why dataset 02 has the highest lag count, 149).
// Each keystroke is a Typing-class interaction with a ~150 ms deadline;
// submitting an answer and advancing to the next logo are heavier.
type LogoQuiz struct {
	Base
	screenID   string // "menu", "level"
	level      int
	menuOffset int
	answer     []rune
	kbd        *screen.Keyboard
	lastKey    rune
	solved     bool
	loading    int
}

// LogoQuizName is the registered app name.
const LogoQuizName = "logoquiz"

// NewLogoQuiz returns the game app.
func NewLogoQuiz() *LogoQuiz {
	return &LogoQuiz{Base: Base{AppName: LogoQuizName}, kbd: screen.NewKeyboard()}
}

// Name implements App.
func (q *LogoQuiz) Name() string { return LogoQuizName }

// Init implements App.
func (q *LogoQuiz) Init(h Host) {
	q.H = h
	q.InFlight = false
	q.screenID = "menu"
	q.level, q.menuOffset = 0, 0
	q.answer = q.answer[:0]
	q.lastKey = 0
	q.solved = false
	q.loading = 0
}

// Enter implements App.
func (q *LogoQuiz) Enter(ix *Interaction) {
	q.screenID = "menu"
	q.H.Invalidate()
	if ix == nil {
		return
	}
	q.H.SetAnimating("quiz.load", true)
	ix.Chunks("quiz.coldload", 11, CostAppLaunch/12, func(i int) {
		q.loading = i
	}, func() {
		q.H.SetAnimating("quiz.load", false)
		ix.Finish()
	})
}

// Widget rects for workload scripts.
var (
	QuizPlayButton   = screen.Rect{X: 340, Y: 700, W: 400, H: 160}
	QuizSubmitButton = screen.Rect{X: 700, Y: 1180, W: 320, H: 110}
	QuizHintButton   = screen.Rect{X: 60, Y: 1180, W: 320, H: 110}
	QuizLogoRect     = screen.Rect{X: 290, Y: 260, W: 500, H: 500}
	QuizAnswerRect   = screen.Rect{X: 60, Y: 900, W: 960, H: 130}
)

// Keyboard exposes the keyboard layout for scripts to aim key taps.
func (q *LogoQuiz) Keyboard() *screen.Keyboard { return q.kbd }

// HandleTap implements App.
func (q *LogoQuiz) HandleTap(x, y int) bool {
	switch q.screenID {
	case "menu":
		if q.InFlight {
			return false
		}
		if QuizPlayButton.Contains(x, y) {
			ix := q.Begin("startLevel", core.SimpleFrequent)
			ix.Work("quiz.level", CostMediumUI, func() {
				q.screenID = "level"
				q.answer = nil
				q.solved = false
				q.H.Invalidate()
				ix.Finish()
			})
			return true
		}
	case "level":
		if c := q.kbd.KeyAt(x, y); c != 0 {
			// Typing is allowed back-to-back; each key is its own lag.
			q.keyPress(c)
			return true
		}
		if q.InFlight {
			return false
		}
		if QuizSubmitButton.Contains(x, y) {
			q.submit()
			return true
		}
		if QuizHintButton.Contains(x, y) {
			q.Instant("hint", core.SimpleFrequent, CostSimpleUI, func() {
				q.answer = append(q.answer, '?')
			})
			return true
		}
	}
	return false
}

func (q *LogoQuiz) keyPress(c rune) {
	ix := BeginInteraction(q.H, q.AppName+".key", core.Typing)
	q.lastKey = c
	q.H.Invalidate() // key highlight is immediate
	ix.Work("quiz.key", CostKeyPress, func() {
		q.answer = append(q.answer, c)
		q.lastKey = 0
		q.H.Invalidate()
		ix.Finish()
	})
}

func (q *LogoQuiz) submit() {
	ix := q.Begin("submit", core.SimpleFrequent)
	ix.Work("quiz.check", CostSimpleUI, func() {
		q.solved = true
		q.H.Invalidate()
		// Advancing to the next logo happens as part of the same lag: the
		// user waits until the next logo is visible.
		ix.Work("quiz.nextLogo", 420_000_000, func() {
			q.level++
			q.solved = false
			q.answer = nil
			q.H.Invalidate()
			ix.Finish()
		})
	})
}

// HandleSwipe implements App: browsing logos in the menu.
func (q *LogoQuiz) HandleSwipe(x0, y0, x1, y1 int) bool {
	if q.InFlight || q.screenID != "menu" {
		return false
	}
	q.Instant("browse", core.SimpleFrequent, CostScroll, func() {
		q.menuOffset++
	})
	return true
}

// HandleBack implements App.
func (q *LogoQuiz) HandleBack() bool {
	if q.InFlight || q.screenID != "level" {
		return false
	}
	q.Instant("backToMenu", core.SimpleFrequent, CostTinyUI, func() {
		q.screenID = "menu"
	})
	return true
}

// Render implements App.
func (q *LogoQuiz) Render(fb *screen.Framebuffer) {
	fb.FillRect(screen.ContentRect, screen.ShadeBackground)
	switch q.screenID {
	case "menu":
		fb.FillRect(QuizPlayButton, screen.ShadeAccent)
		fb.DrawPattern(screen.Rect{X: 240, Y: 300, W: 600, H: 300}, uint64(4000+q.level+q.menuOffset*7), screen.ShadeSurface, screen.ShadeText)
		if q.loading > 0 && q.loading < 11 {
			screen.DrawSpinner(fb, screen.Rect{X: 440, Y: 1100, W: 200, H: 200}, spinPhase(fb.Now()))
		}
	case "level":
		fb.DrawPattern(QuizLogoRect, uint64(5000+q.level*7), screen.ShadeSurface, screen.ShadeAccent)
		// Answer field: one block per typed character.
		fb.FillRect(QuizAnswerRect, screen.ShadeSurface)
		for i := range q.answer {
			fb.FillRect(screen.Rect{X: QuizAnswerRect.X + 20 + i*60, Y: QuizAnswerRect.Y + 25, W: 40, H: 80}, screen.ShadeText)
		}
		fb.FillRect(QuizSubmitButton, screen.ShadeWidget)
		fb.FillRect(QuizHintButton, screen.ShadeWidget)
		if q.solved {
			fb.FillRect(screen.Rect{X: 290, Y: 770, W: 500, H: 90}, screen.ShadeAccent)
		}
		q.kbd.Draw(fb, q.lastKey)
	}
}

// VolatileRects implements App.
func (q *LogoQuiz) VolatileRects() []screen.Rect { return nil }
