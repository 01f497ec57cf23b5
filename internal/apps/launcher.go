package apps

import (
	"repro/internal/core"
	"repro/internal/screen"
)

// Launcher is the home screen: a grid of app icons. Tapping an icon starts a
// launch interaction that the target app finishes once loaded; tapping
// wallpaper is a spurious input.
type Launcher struct {
	Base
	icons []launcherIcon
	// coldDone tracks apps that have been launched once; later launches are
	// warm and much cheaper, deterministically across configurations.
	coldDone map[string]bool
}

type launcherIcon struct {
	app  string
	r    screen.Rect
	seed uint64
}

// LauncherName is the registered name of the home screen app.
const LauncherName = "launcher"

// NewLauncher builds the home screen for the given app names (max 20 icons,
// 4 columns × 5 rows).
func NewLauncher(appNames []string) *Launcher {
	l := &Launcher{Base: Base{AppName: LauncherName}, coldDone: make(map[string]bool)}
	const cols = 4
	iconW, iconH := 200, 240
	gapX := (screen.LogicalW - cols*iconW) / (cols + 1)
	for i, name := range appNames {
		col, row := i%cols, i/cols
		l.icons = append(l.icons, launcherIcon{
			app: name,
			r: screen.Rect{
				X: gapX + col*(iconW+gapX),
				Y: screen.ContentRect.Y + 100 + row*(iconH+60),
				W: iconW, H: iconH,
			},
			seed: uint64(i)*2654435761 + 17,
		})
	}
	return l
}

// Name implements App.
func (l *Launcher) Name() string { return LauncherName }

// Init implements App.
func (l *Launcher) Init(h Host) {
	l.H = h
	l.InFlight = false
	for k := range l.coldDone {
		delete(l.coldDone, k)
	}
}

// Enter implements App; returning home is itself a small interaction.
func (l *Launcher) Enter(ix *Interaction) {
	if ix == nil {
		l.H.Invalidate()
		return
	}
	ix.Work("launcher.show", CostTinyUI, func() {
		l.H.Invalidate()
		ix.Finish()
	})
}

// IconRect returns the icon rect for an app name, for workload scripts to
// aim their taps at.
func (l *Launcher) IconRect(app string) (screen.Rect, bool) {
	for _, ic := range l.icons {
		if ic.app == app {
			return ic.r, true
		}
	}
	return screen.Rect{}, false
}

// HandleTap implements App: icon taps launch apps.
func (l *Launcher) HandleTap(x, y int) bool {
	if l.InFlight {
		return false
	}
	for _, ic := range l.icons {
		if !ic.r.Contains(x, y) {
			continue
		}
		app := ic.app
		class := core.CommonTask
		cost := int64(CostAppLaunchHot)
		if !l.coldDone[app] {
			l.coldDone[app] = true
			cost = CostAppLaunch / 12 // Enter runs the remaining chunks
		}
		ix := l.Begin("launch."+app, class)
		ix.Work("launch.dispatch", cost, func() {
			l.H.Launch(app, ix)
		})
		return true
	}
	return false
}

// HandleSwipe implements App; home screen panning is visual-only here.
func (l *Launcher) HandleSwipe(x0, y0, x1, y1 int) bool { return false }

// HandleBack implements App; back on the home screen does nothing.
func (l *Launcher) HandleBack() bool { return false }

// Render implements App.
func (l *Launcher) Render(fb *screen.Framebuffer) {
	fb.FillRect(screen.ContentRect, screen.ShadeBackground)
	for _, ic := range l.icons {
		fb.DrawPattern(ic.r, ic.seed, screen.ShadeWidget, screen.ShadeAccent)
	}
}

// VolatileRects implements App.
func (l *Launcher) VolatileRects() []screen.Rect { return nil }
