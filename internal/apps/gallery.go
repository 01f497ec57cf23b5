package apps

import (
	"repro/internal/core"
	"repro/internal/screen"
	"repro/internal/sim"
)

// Gallery models the image manipulation workload of dataset 01: browse
// albums, open photos, apply filters, and save results to the SD card — the
// save being the source of the paper's longest lags ("these long durations
// occur since we consider the whole time the image needs to be saved as a
// lag", up to 12–13 s at the lowest frequency).
type Gallery struct {
	Base
	screenID    string // "albums", "album", "photo", "edit"
	loadedItems int    // progressive loading progress
	album       int
	photo       int
	scroll      int // album grid scroll position
	filterGen   int // how many filters have been applied to this photo
	filtered    bool
	saving      bool
	saveFrac    float64
	toast       string
}

// GalleryName is the registered app name.
const GalleryName = "gallery"

// NewGallery returns the gallery app.
func NewGallery() *Gallery { return &Gallery{Base: Base{AppName: GalleryName}} }

// Name implements App.
func (g *Gallery) Name() string { return GalleryName }

// Init implements App.
func (g *Gallery) Init(h Host) {
	g.H = h
	g.InFlight = false
	g.screenID = "albums"
	g.loadedItems = 0
	g.album, g.photo, g.scroll, g.filterGen = 0, 0, 0, 0
	g.filtered, g.saving = false, false
	g.toast = ""
}

// Enter implements App: cold start loads the album overview progressively —
// the exact scenario of the paper's Fig. 7 ("loading the Gallery takes about
// 200 frames at the lowest CPU frequency ... and leads to 8 to 10 suggested
// images").
func (g *Gallery) Enter(ix *Interaction) {
	g.screenID = "albums"
	g.loadedItems = 0
	g.H.Invalidate()
	if ix == nil {
		g.loadedItems = 9
		g.H.Invalidate()
		return
	}
	g.H.SetAnimating("gallery.load", true)
	ix.Chunks("gallery.coldload", 9, CostAppLaunch/12, func(i int) {
		g.loadedItems = i
	}, func() {
		g.H.SetAnimating("gallery.load", false)
		ix.Finish()
	})
}

// Widget rects, exported for workload scripts.
var (
	GalleryAlbumRects = []screen.Rect{
		{X: 60, Y: 300, W: 440, H: 440},
		{X: 580, Y: 300, W: 440, H: 440},
		{X: 60, Y: 820, W: 440, H: 440},
	}
	GalleryPhotoRects = []screen.Rect{
		{X: 40, Y: 260, W: 320, H: 320},
		{X: 380, Y: 260, W: 320, H: 320},
		{X: 720, Y: 260, W: 320, H: 320},
		{X: 40, Y: 600, W: 320, H: 320},
		{X: 380, Y: 600, W: 320, H: 320},
		{X: 720, Y: 600, W: 320, H: 320},
	}
	GalleryEditButton   = screen.Rect{X: 120, Y: 1500, W: 260, H: 140}
	GalleryFilterButton = screen.Rect{X: 420, Y: 1500, W: 260, H: 140}
	GallerySaveButton   = screen.Rect{X: 720, Y: 1500, W: 260, H: 140}
	// GalleryLoadSpinnerRect is where the albums-view loading spinner
	// animates; the Fig. 7 suggester example masks it so the per-element
	// loading progress shows as distinct still periods.
	GalleryLoadSpinnerRect = screen.Rect{X: 440, Y: 900, W: 200, H: 200}
)

// HandleTap implements App.
func (g *Gallery) HandleTap(x, y int) bool {
	if g.InFlight {
		return false
	}
	switch g.screenID {
	case "albums":
		for i, r := range GalleryAlbumRects {
			if r.Contains(x, y) {
				g.openAlbum(i)
				return true
			}
		}
	case "album":
		for i, r := range GalleryPhotoRects {
			if r.Contains(x, y) {
				g.openPhoto(i)
				return true
			}
		}
	case "photo":
		if GalleryEditButton.Contains(x, y) {
			g.Instant("enterEdit", core.SimpleFrequent, CostSimpleUI, func() {
				g.screenID = "edit"
				g.filtered = false
			})
			return true
		}
	case "edit":
		if GalleryFilterButton.Contains(x, y) {
			g.applyFilter()
			return true
		}
		if GallerySaveButton.Contains(x, y) {
			g.saveImage()
			return true
		}
	}
	return false
}

func (g *Gallery) openAlbum(i int) {
	ix := g.Begin("openAlbum", core.CommonTask)
	g.screenID = "album"
	g.album = i
	g.loadedItems = 0
	g.H.Invalidate()
	g.H.SetAnimating("gallery.album", true)
	ix.Chunks("gallery.albumload", 6, 70_000_000, func(k int) {
		g.loadedItems = k
	}, func() {
		g.H.SetAnimating("gallery.album", false)
		ix.Finish()
	})
}

func (g *Gallery) openPhoto(i int) {
	ix := g.Begin("openPhoto", core.SimpleFrequent)
	g.photo = i
	ix.Work("gallery.decode", CostMediumUI, func() {
		g.screenID = "photo"
		g.H.Invalidate()
		ix.Finish()
	})
}

func (g *Gallery) applyFilter() {
	ix := g.Begin("applyFilter", core.CommonTask)
	g.H.SetAnimating("gallery.filter", true)
	ix.Chunks("gallery.filter", 3, CostHeavyUI/3, func(k int) {
		// progressive preview rendering
	}, func() {
		g.filtered = true
		g.filterGen++ // each application visibly re-filters the image
		g.H.SetAnimating("gallery.filter", false)
		g.H.Invalidate()
		ix.Finish()
	})
}

// saveImage is the heavy CPU+IO interaction: encode (CPU) then write to SD
// (IO) then thumbnail update (CPU).
func (g *Gallery) saveImage() {
	ix := g.Begin("saveImage", core.ComplexTask)
	g.saving = true
	g.saveFrac = 0
	g.H.Invalidate()
	g.H.SetAnimating("gallery.save", true)
	ix.Chunks("gallery.encode", 4, CostImageSave/4, func(k int) {
		g.saveFrac = float64(k) / 5
	}, func() {
		ix.IO("gallery.sdwrite", 2200*sim.Millisecond, func() {
			ix.Work("gallery.thumb", CostSimpleUI, func() {
				g.saving = false
				g.filtered = false
				g.toast = "saved"
				g.H.SetAnimating("gallery.save", false)
				g.H.Invalidate()
				ix.Finish()
			})
		})
	})
}

// HandleSwipe implements App: swiping in an album scrolls the grid.
func (g *Gallery) HandleSwipe(x0, y0, x1, y1 int) bool {
	if g.InFlight || g.screenID != "album" {
		return false
	}
	g.Instant("scroll", core.SimpleFrequent, CostScroll, func() {
		g.scroll++
	})
	return true
}

// HandleBack implements App.
func (g *Gallery) HandleBack() bool {
	if g.InFlight {
		return false
	}
	switch g.screenID {
	case "album":
		g.Instant("backToAlbums", core.SimpleFrequent, CostTinyUI, func() {
			g.screenID = "albums"
			g.loadedItems = 9
		})
	case "photo":
		g.Instant("backToAlbum", core.SimpleFrequent, CostTinyUI, func() {
			g.screenID = "album"
			g.loadedItems = 6
		})
	case "edit":
		g.Instant("exitEdit", core.SimpleFrequent, CostTinyUI, func() {
			g.screenID = "photo"
			g.toast = ""
		})
	default:
		return false
	}
	return true
}

// Render implements App.
func (g *Gallery) Render(fb *screen.Framebuffer) {
	fb.FillRect(screen.ContentRect, screen.ShadeBackground)
	switch g.screenID {
	case "albums":
		for i := 0; i < 9 && i < g.loadedItems; i++ {
			if i < len(GalleryAlbumRects) {
				fb.DrawPattern(GalleryAlbumRects[i], uint64(1000+i), screen.ShadeSurface, screen.ShadeAccent)
			} else {
				r := GalleryAlbumRects[i%3]
				r.Y += 520 * (i / 3)
				fb.DrawPattern(r, uint64(1000+i), screen.ShadeSurface, screen.ShadeAccent)
			}
		}
		if g.loadedItems < 9 {
			screen.DrawSpinner(fb, GalleryLoadSpinnerRect, spinPhase(fb.Now()))
		}
	case "album":
		for i := 0; i < g.loadedItems && i < len(GalleryPhotoRects); i++ {
			seed := uint64(2000 + g.album*10 + g.scroll*60 + i)
			fb.DrawPattern(GalleryPhotoRects[i], seed, screen.ShadeSurface, screen.ShadeText)
		}
		if g.loadedItems < 6 {
			screen.DrawSpinner(fb, screen.Rect{X: 440, Y: 1100, W: 200, H: 200}, spinPhase(fb.Now()))
		}
	case "photo":
		photoR := screen.Rect{X: 40, Y: 300, W: 1000, H: 1000}
		fb.DrawPattern(photoR, uint64(3000+g.album*10+g.photo), screen.ShadeSurface, screen.ShadeText)
		fb.FillRect(GalleryEditButton, screen.ShadeWidget)
		if g.toast != "" {
			fb.FillRect(screen.Rect{X: 300, Y: 1320, W: 480, H: 100}, screen.ShadeAccent)
		}
	case "edit":
		seed := uint64(3000+g.album*10+g.photo) + uint64(g.filterGen)*777
		hi := screen.ShadeText
		if g.filtered {
			hi = screen.ShadeAccent
		}
		fb.DrawPattern(screen.Rect{X: 40, Y: 300, W: 1000, H: 1000}, seed, screen.ShadeSurface, hi)
		fb.FillRect(GalleryFilterButton, screen.ShadeWidget)
		fb.FillRect(GallerySaveButton, screen.ShadeWidget)
		if g.saving {
			screen.DrawProgressBar(fb, screen.Rect{X: 140, Y: 1350, W: 800, H: 90}, g.saveFrac)
		}
	}
}

// VolatileRects implements App.
func (g *Gallery) VolatileRects() []screen.Rect { return nil }

// spinPhase derives a spinner animation phase from time (changes every
// capture frame).
func spinPhase(now sim.Time) int {
	return int(int64(now) / int64(33*sim.Millisecond))
}
