package apps

import (
	"repro/internal/core"
	"repro/internal/screen"
	"repro/internal/sim"
)

// RetroRunner is a Guitar-Hero-like rhythm game: the workload class the
// paper's future work targets — "workloads that are dominated by Jank type
// lags where frames are dropped when the processor is too busy to keep up
// with the load. These occur mainly during CPU intensive workloads such as
// games". While playing, the game renders a frame every vsync period; a
// frame whose work misses the next vsync deadline is a dropped frame (jank).
//
// It also stands in for the legacy benchmark's manually-played game whose
// input "timings ... vary by 0.5 to 1 second between multiple runs" when
// humans replay it — our record/replay keeps it deterministic.
type RetroRunner struct {
	Base
	screenID string // "menu", "playing"
	score    int
	combo    int
	phase    int

	// FrameWork is the game logic+render cost per frame in cycles. At the
	// lowest OPP it exceeds the frame budget, producing heavy jank.
	FrameWork int64

	// Jank statistics for the current/last session.
	TotalFrames   int
	DroppedFrames int

	sessionOn   bool
	sessionGen  int
	frameSeq    int
	outstanding int // frames submitted but not yet completed, at most maxQueuedFrames
}

// RetroRunnerName is the registered app name.
const RetroRunnerName = "retrorunner"

// GameFramePeriod is the game's render deadline (one 30 fps vsync).
const GameFramePeriod = 33333 * sim.Microsecond

// maxQueuedFrames bounds the frames in flight. Like a render thread that
// blocks once its BufferQueue holds two buffers, the game skips a frame due
// while two are outstanding, so a saturated core never queues more work
// than two frames' worth ahead of the user's input.
const maxQueuedFrames = 2

// NewRetroRunner returns the game. The 27M-cycle frame cost needs ~0.81 GHz
// of sustained throughput for 30 fps: the bottom of the ladder is hopeless,
// the middle is marginal (background bursts cause visible stutter), and the
// top is comfortable.
func NewRetroRunner() *RetroRunner {
	return &RetroRunner{Base: Base{AppName: RetroRunnerName}, FrameWork: 27_000_000}
}

// Name implements App.
func (g *RetroRunner) Name() string { return RetroRunnerName }

// Init implements App.
func (g *RetroRunner) Init(h Host) {
	g.H = h
	g.InFlight = false
	g.screenID = "menu"
	g.score, g.combo, g.phase = 0, 0, 0
	g.TotalFrames, g.DroppedFrames = 0, 0
	g.sessionOn = false
	g.sessionGen, g.frameSeq, g.outstanding = 0, 0, 0
}

// Enter implements App.
func (g *RetroRunner) Enter(ix *Interaction) {
	g.screenID = "menu"
	g.H.Invalidate()
	if ix == nil {
		return
	}
	ix.Chunks("game.coldload", 6, CostAppLaunch/9, func(i int) {
		g.phase = i
	}, func() {
		g.phase = 0
		g.H.Invalidate()
		ix.Finish()
	})
}

// Widget rects for workload scripts.
var (
	GamePlayButton = screen.Rect{X: 340, Y: 800, W: 400, H: 160}
	GameStopButton = screen.Rect{X: 820, Y: 180, W: 200, H: 110}
	GameNoteLanes  = []screen.Rect{
		{X: 60, Y: 1200, W: 220, H: 220},
		{X: 310, Y: 1200, W: 220, H: 220},
		{X: 560, Y: 1200, W: 220, H: 220},
		{X: 810, Y: 1200, W: 220, H: 220},
	}
)

// HandleTap implements App.
func (g *RetroRunner) HandleTap(x, y int) bool {
	switch g.screenID {
	case "menu":
		if g.InFlight {
			return false
		}
		if GamePlayButton.Contains(x, y) {
			ix := g.Begin("startSession", core.SimpleFrequent)
			ix.Work("game.loadLevel", CostMediumUI, func() {
				g.startSession()
				ix.Finish()
			})
			return true
		}
	case "playing":
		if GameStopButton.Contains(x, y) {
			g.Instant("stopSession", core.SimpleFrequent, CostSimpleUI, func() {
				g.stopSession()
			})
			return true
		}
		for lane, r := range GameNoteLanes {
			if r.Contains(x, y) {
				// Hitting a note: a tiny typing-class interaction on top of
				// the continuous frame load.
				ix := BeginInteraction(g.H, g.AppName+".note", core.Typing)
				lane := lane
				ix.Work("game.note", CostKeyPress, func() {
					g.score += 10 + lane
					g.combo++
					g.H.Invalidate()
					ix.Finish()
				})
				return true
			}
		}
	}
	return false
}

// startSession begins the frame loop. Each frame submits FrameWork cycles;
// if the work finishes after the next vsync deadline the frame is dropped,
// and so is a frame skipped because two are still in flight.
func (g *RetroRunner) startSession() {
	g.screenID = "playing"
	g.sessionOn = true
	g.sessionGen++
	g.TotalFrames, g.DroppedFrames = 0, 0
	g.frameSeq = 0
	g.outstanding = 0
	g.H.Invalidate()
	g.H.SetAnimating("game.session", true)
	g.frameLoop()
}

func (g *RetroRunner) frameLoop() {
	if !g.sessionOn {
		return
	}
	g.TotalFrames++
	if g.outstanding == maxQueuedFrames {
		g.DroppedFrames++
		g.H.After(GameFramePeriod, g.frameLoop)
		return
	}
	gen := g.sessionGen
	seq := g.frameSeq
	g.frameSeq++
	deadline := g.H.Now().Add(GameFramePeriod)
	g.outstanding++
	g.H.SpawnWork("game.frame", g.FrameWork, func() {
		if gen != g.sessionGen {
			return // stale frame from an already-stopped session
		}
		g.outstanding--
		if g.H.Now() > deadline {
			g.DroppedFrames++
		}
		if g.sessionOn {
			g.phase = seq
			g.H.Invalidate()
		}
	})
	g.H.After(GameFramePeriod, g.frameLoop)
}

// stopSession ends the frame loop. The frames still in flight are never
// shown, so they count as dropped.
func (g *RetroRunner) stopSession() {
	g.sessionOn = false
	g.DroppedFrames += g.outstanding
	g.sessionGen++
	g.screenID = "menu"
	g.H.SetAnimating("game.session", false)
	g.H.Invalidate()
}

// JankRatio returns the fraction of dropped frames. The frames still in
// flight, at most two, are not judged yet, so the ratio is valid
// mid-session as well as after stopSession.
func (g *RetroRunner) JankRatio() float64 {
	if g.TotalFrames == 0 {
		return 0
	}
	return float64(g.DroppedFrames) / float64(g.TotalFrames)
}

// HandleSwipe implements App.
func (g *RetroRunner) HandleSwipe(x0, y0, x1, y1 int) bool { return false }

// HandleBack implements App.
func (g *RetroRunner) HandleBack() bool {
	if g.screenID != "playing" {
		return false
	}
	g.Instant("backToMenu", core.SimpleFrequent, CostTinyUI, func() {
		g.stopSession()
	})
	return true
}

// Render implements App.
func (g *RetroRunner) Render(fb *screen.Framebuffer) {
	fb.FillRect(screen.ContentRect, screen.ShadeBackground)
	switch g.screenID {
	case "menu":
		fb.FillRect(GamePlayButton, screen.ShadeAccent)
		fb.DrawPattern(screen.Rect{X: 240, Y: 300, W: 600, H: 400}, uint64(16000+g.score), screen.ShadeSurface, screen.ShadeText)
		if g.phase > 0 {
			screen.DrawProgressBar(fb, screen.Rect{X: 140, Y: 1100, W: 800, H: 90}, float64(g.phase)/6)
		}
	case "playing":
		// The note highway scrolls every frame.
		fb.DrawPattern(screen.Rect{X: 40, Y: 300, W: 1000, H: 800}, uint64(17000+g.phase), screen.ShadeBackground, screen.ShadeAccent)
		for lane, r := range GameNoteLanes {
			shade := screen.ShadeWidget
			if (g.phase+lane)%4 == 0 {
				shade = screen.ShadeAccent
			}
			fb.FillRect(r, shade)
		}
		fb.FillRect(GameStopButton, screen.ShadeWidget)
		// Score readout.
		fb.DrawPattern(screen.Rect{X: 60, Y: 180, W: 400, H: 110}, uint64(18000+g.score), screen.ShadeSurface, screen.ShadeText)
	}
}

// VolatileRects implements App: the whole highway animates during play, so
// interactions landing mid-session mask it.
func (g *RetroRunner) VolatileRects() []screen.Rect {
	if g.screenID != "playing" {
		return nil
	}
	return []screen.Rect{
		{X: 40, Y: 300, W: 1000, H: 800},
		GameNoteLanes[0], GameNoteLanes[1], GameNoteLanes[2], GameNoteLanes[3],
	}
}
