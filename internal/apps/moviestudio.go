package apps

import (
	"repro/internal/core"
	"repro/internal/screen"
	"repro/internal/sim"
)

// MovieStudio models dataset 04: video project creation. Its preview
// rendering and export interactions are the heaviest CPU bursts in the
// suite, producing the long complex-task lags the paper's Fig. 11 fliers
// show at low frequencies.
type MovieStudio struct {
	Base
	screenID   string // "projects", "editor"
	loading    int    // cold-start progress (0 = loaded)
	clips      int
	scrubPos   int
	rendering  bool
	renderFrac float64
	exported   int
}

// MovieStudioName is the registered app name.
const MovieStudioName = "moviestudio"

// NewMovieStudio returns the video editor app.
func NewMovieStudio() *MovieStudio {
	return &MovieStudio{Base: Base{AppName: MovieStudioName}}
}

// Name implements App.
func (ms *MovieStudio) Name() string { return MovieStudioName }

// Init implements App.
func (ms *MovieStudio) Init(h Host) {
	ms.H = h
	ms.InFlight = false
	ms.screenID = "projects"
	ms.loading = 0
	ms.clips = 0
	ms.scrubPos = 0
	ms.rendering = false
	ms.renderFrac = 0
	ms.exported = 0
}

// Enter implements App.
func (ms *MovieStudio) Enter(ix *Interaction) {
	ms.screenID = "projects"
	ms.H.Invalidate()
	if ix == nil {
		ms.loading = 0
		return
	}
	ms.loading = 1
	ix.Chunks("moviestudio.coldload", 6, CostAppLaunch/10, func(i int) {
		ms.loading = i
	}, func() {
		ms.loading = 0
		ms.H.Invalidate()
		ix.Finish()
	})
}

// Widget rects for workload scripts.
var (
	StudioProjectRect  = screen.Rect{X: 90, Y: 300, W: 900, H: 260}
	StudioAddClipBtn   = screen.Rect{X: 60, Y: 1500, W: 280, H: 140}
	StudioPreviewBtn   = screen.Rect{X: 400, Y: 1500, W: 280, H: 140}
	StudioExportBtn    = screen.Rect{X: 740, Y: 1500, W: 280, H: 140}
	StudioTimelineRect = screen.Rect{X: 40, Y: 1200, W: 1000, H: 220}
)

// HandleTap implements App.
func (ms *MovieStudio) HandleTap(x, y int) bool {
	if ms.InFlight {
		return false
	}
	switch ms.screenID {
	case "projects":
		if StudioProjectRect.Contains(x, y) {
			ix := ms.Begin("openProject", core.CommonTask)
			ix.Chunks("studio.loadProject", 3, CostMediumUI, nil, func() {
				ms.screenID = "editor"
				ms.H.Invalidate()
				ix.Finish()
			})
			return true
		}
	case "editor":
		switch {
		case StudioAddClipBtn.Contains(x, y):
			ix := ms.Begin("addClip", core.CommonTask)
			ix.IO("studio.readClip", 600*sim.Millisecond, func() {
				ix.Work("studio.decodeClip", CostHeavyUI, func() {
					ms.clips++
					ms.H.Invalidate()
					ix.Finish()
				})
			})
			return true
		case StudioPreviewBtn.Contains(x, y) && ms.clips > 0:
			ms.renderPreview()
			return true
		case StudioExportBtn.Contains(x, y) && ms.clips > 0:
			ms.export()
			return true
		}
	}
	return false
}

// renderPreview is a heavy progressive render.
func (ms *MovieStudio) renderPreview() {
	ix := ms.Begin("preview", core.ComplexTask)
	ms.rendering = true
	ms.renderFrac = 0
	ms.H.Invalidate()
	ms.H.SetAnimating("studio.render", true)
	n := 6
	ix.Chunks("studio.render", n, CostVideoExport/12, func(i int) {
		ms.renderFrac = float64(i) / float64(n)
	}, func() {
		ms.rendering = false
		ms.H.SetAnimating("studio.render", false)
		ms.H.Invalidate()
		ix.Finish()
	})
}

// export is the heaviest interaction in the suite: full re-encode plus SD
// write.
func (ms *MovieStudio) export() {
	ix := ms.Begin("export", core.ComplexTask)
	ms.rendering = true
	ms.renderFrac = 0
	ms.H.Invalidate()
	ms.H.SetAnimating("studio.export", true)
	n := 8
	ix.Chunks("studio.encode", n, CostVideoExport/8, func(i int) {
		ms.renderFrac = float64(i) / float64(n)
	}, func() {
		ix.IO("studio.sdwrite", 1000*sim.Millisecond, func() {
			ms.rendering = false
			ms.exported++
			ms.H.SetAnimating("studio.export", false)
			ms.H.Invalidate()
			ix.Finish()
		})
	})
}

// HandleSwipe implements App: scrubbing the timeline.
func (ms *MovieStudio) HandleSwipe(x0, y0, x1, y1 int) bool {
	if ms.InFlight || ms.screenID != "editor" || ms.clips == 0 {
		return false
	}
	ms.Instant("scrub", core.SimpleFrequent, CostScroll+CostTinyUI, func() { ms.scrubPos++ })
	return true
}

// HandleBack implements App.
func (ms *MovieStudio) HandleBack() bool {
	if ms.InFlight || ms.screenID != "editor" {
		return false
	}
	ms.Instant("backToProjects", core.SimpleFrequent, CostTinyUI, func() {
		ms.screenID = "projects"
	})
	return true
}

// Render implements App.
func (ms *MovieStudio) Render(fb *screen.Framebuffer) {
	fb.FillRect(screen.ContentRect, screen.ShadeBackground)
	switch ms.screenID {
	case "projects":
		if ms.loading > 0 {
			screen.DrawProgressBar(fb, screen.Rect{X: 140, Y: 900, W: 800, H: 90}, float64(ms.loading)/6)
			return
		}
		fb.DrawPattern(StudioProjectRect, 9000, screen.ShadeSurface, screen.ShadeText)
	case "editor":
		// Preview pane shows the frame under the scrub position.
		seed := uint64(9100 + ms.clips*10 + ms.exported + ms.scrubPos*1000)
		fb.DrawPattern(screen.Rect{X: 40, Y: 260, W: 1000, H: 700}, seed, screen.ShadeSurface, screen.ShadeAccent)
		// Timeline with one block per clip.
		fb.FillRect(StudioTimelineRect, screen.ShadeSurface)
		for i := 0; i < ms.clips && i < 8; i++ {
			fb.FillRect(screen.Rect{X: 60 + i*125, Y: 1230, W: 105, H: 160}, screen.ShadePressed)
		}
		fb.FillRect(StudioAddClipBtn, screen.ShadeWidget)
		fb.FillRect(StudioPreviewBtn, screen.ShadeWidget)
		fb.FillRect(StudioExportBtn, screen.ShadeWidget)
		if ms.rendering {
			screen.DrawProgressBar(fb, screen.Rect{X: 140, Y: 1000, W: 800, H: 90}, ms.renderFrac)
		}
	}
}

// VolatileRects implements App.
func (ms *MovieStudio) VolatileRects() []screen.Rect { return nil }
