package apps

import (
	"testing"

	"repro/internal/core"
	"repro/internal/screen"
	"repro/internal/sim"
)

// fakeHost executes work and IO immediately (frequency-independent), which
// makes app state machines synchronous and easy to assert on. With
// queueWork set it queues them instead, until step completes them one by
// one, so a test can render the states in between.
type fakeHost struct {
	now          sim.Time
	rnd          *sim.Rand
	started      []string
	done         map[int]bool
	finished     int
	invalidates  int
	anims        map[string]bool
	launched     string
	deferredWork int
	quietTimers  int           // timers armed by AfterQuiet
	woken        []sim.EventID // IDs passed to Wake
	queueWork    bool
	queued       []func()
	// renderT is the test rendering through render, nil outside a Render.
	renderT *testing.T
}

func newFakeHost() *fakeHost {
	return &fakeHost{rnd: sim.NewRand(1), anims: map[string]bool{}, done: map[int]bool{}}
}

// Now reports an error when a Render asks for the time: the device redraws
// a frame every vsync only when it read the clock through fb.Now, so a
// Render that took the time from the host would freeze on screen.
func (h *fakeHost) Now() sim.Time {
	if h.renderT != nil {
		h.renderT.Errorf("Render read the time from the host; read fb.Now instead")
	}
	return h.now
}
func (h *fakeHost) Rand() *sim.Rand { return h.rnd }
func (h *fakeHost) After(d sim.Duration, fn func()) {
	// Timers are dropped: services are not under test here.
	h.deferredWork++
}

// AfterQuiet drops the timer like After and returns an ID that Wake
// records.
func (h *fakeHost) AfterQuiet(d sim.Duration, fn func()) sim.EventID {
	h.deferredWork++
	h.quietTimers++
	return sim.EventID(h.quietTimers)
}
func (h *fakeHost) Wake(id sim.EventID) { h.woken = append(h.woken, id) }
func (h *fakeHost) SpawnWork(name string, cycles int64, onDone func()) {
	h.complete(sim.Duration(cycles/1000), onDone) // pretend 1 GHz
}
func (h *fakeHost) SpawnIO(name string, d sim.Duration, onDone func()) {
	h.complete(d, onDone)
}

// complete advances the clock by d and runs onDone: at once, or, with
// queueWork set, when step reaches it.
func (h *fakeHost) complete(d sim.Duration, onDone func()) {
	fn := func() {
		h.now = h.now.Add(d)
		if onDone != nil {
			onDone()
		}
	}
	if h.queueWork {
		h.queued = append(h.queued, fn)
		return
	}
	fn()
}

// step completes the oldest queued work or IO; false when none is queued.
func (h *fakeHost) step() bool {
	if len(h.queued) == 0 {
		return false
	}
	fn := h.queued[0]
	h.queued = h.queued[1:]
	fn()
	return true
}

// render draws a's content into fb at the host's current instant, as the
// device does, and reports whether the frame read the clock.
func (h *fakeHost) render(t *testing.T, a App, fb *screen.Framebuffer) bool {
	t.Helper()
	fb.SetNow(h.now)
	h.renderT = t
	a.Render(fb)
	h.renderT = nil
	return fb.ClockRead()
}
func (h *fakeHost) Invalidate() { h.invalidates++ }
func (h *fakeHost) SetAnimating(token string, on bool) {
	if on {
		h.anims[token] = true
	} else {
		delete(h.anims, token)
	}
}
func (h *fakeHost) Launch(name string, ix *Interaction) {
	h.launched = name
	if ix != nil {
		ix.Finish()
	}
}
func (h *fakeHost) InteractionStarted(label string, class core.HCIClass) int {
	h.started = append(h.started, label)
	return len(h.started) - 1
}
func (h *fakeHost) InteractionFinished(id int) bool {
	if h.done[id] {
		return false
	}
	h.done[id] = true
	h.finished++
	return true
}

func tapCenter(t *testing.T, a App, r screen.Rect) bool {
	t.Helper()
	cx, cy := r.Center()
	return a.HandleTap(cx, cy)
}

func TestInteractionChunks(t *testing.T) {
	h := newFakeHost()
	ix := BeginInteraction(h, "test", core.CommonTask)
	var seen []int
	ix.Chunks("chunk", 4, 1000, func(i int) { seen = append(seen, i) }, func() { ix.Finish() })
	if len(seen) != 4 || seen[3] != 4 {
		t.Fatalf("chunk updates = %v", seen)
	}
	if !ix.Finished() || h.finished != 1 {
		t.Fatal("chunks did not finish the interaction")
	}
	// Zero chunks completes immediately.
	done := false
	ix2 := BeginInteraction(h, "t2", core.Typing)
	ix2.Chunks("none", 0, 100, nil, func() { done = true })
	if !done {
		t.Fatal("zero-chunk final callback missing")
	}
}

func TestInteractionFinishIdempotent(t *testing.T) {
	h := newFakeHost()
	ix := BeginInteraction(h, "x", core.Typing)
	calls := 0
	ix.OnFinish(func() { calls++ })
	ix.Finish()
	ix.Finish()
	if calls != 1 || h.finished != 1 {
		t.Fatalf("Finish not idempotent: callbacks=%d host=%d", calls, h.finished)
	}
}

func TestGalleryFlow(t *testing.T) {
	h := newFakeHost()
	g := NewGallery()
	g.Init(h)
	g.Enter(nil)

	if !tapCenter(t, g, GalleryAlbumRects[1]) {
		t.Fatal("album tap missed")
	}
	if g.screenID != "album" {
		t.Fatalf("screen = %s after openAlbum", g.screenID)
	}
	if !tapCenter(t, g, GalleryPhotoRects[0]) {
		t.Fatal("photo tap missed")
	}
	if !tapCenter(t, g, GalleryEditButton) {
		t.Fatal("edit tap missed")
	}
	if !tapCenter(t, g, GalleryFilterButton) {
		t.Fatal("filter tap missed")
	}
	gen := g.filterGen
	if gen != 1 {
		t.Fatalf("filterGen = %d after one filter", gen)
	}
	if !tapCenter(t, g, GallerySaveButton) {
		t.Fatal("save tap missed")
	}
	if g.saving {
		t.Fatal("save did not complete under synchronous host")
	}
	// Back navigation unwinds edit -> photo -> album -> albums.
	for _, want := range []string{"photo", "album", "albums"} {
		if !g.HandleBack() {
			t.Fatalf("back ignored while heading to %s", want)
		}
		if g.screenID != want {
			t.Fatalf("screen = %s, want %s", g.screenID, want)
		}
	}
	if g.HandleBack() {
		t.Fatal("back on root screen should be unhandled (spurious)")
	}
}

func TestGallerySpuriousTaps(t *testing.T) {
	h := newFakeHost()
	g := NewGallery()
	g.Init(h)
	g.Enter(nil)
	if g.HandleTap(1052, 1004) {
		t.Fatal("dead-zone tap handled")
	}
	// Edit button does nothing on the albums screen.
	if tapCenter(t, g, GalleryEditButton) {
		t.Fatal("edit button active on albums screen")
	}
}

func TestLogoQuizTypingFlow(t *testing.T) {
	h := newFakeHost()
	q := NewLogoQuiz()
	q.Init(h)
	q.Enter(nil)
	if !tapCenter(t, q, QuizPlayButton) {
		t.Fatal("play missed")
	}
	kb := q.Keyboard()
	for _, c := range "nike" {
		r, ok := kb.KeyRect(c)
		if !ok {
			t.Fatalf("no key %q", c)
		}
		if !tapCenter(t, q, r) {
			t.Fatalf("key %q missed", c)
		}
	}
	if len(q.answer) != 4 {
		t.Fatalf("answer length %d", len(q.answer))
	}
	level := q.level
	if !tapCenter(t, q, QuizSubmitButton) {
		t.Fatal("submit missed")
	}
	if q.level != level+1 || len(q.answer) != 0 {
		t.Fatalf("submit did not advance: level %d answer %d", q.level, len(q.answer))
	}
}

func TestMessagingSendSecondOccurrence(t *testing.T) {
	h := newFakeHost()
	m := NewMessaging()
	m.Init(h)
	m.Enter(nil)
	if !tapCenter(t, m, MessagingThreadRects[0]) {
		t.Fatal("thread tap missed")
	}
	kb := m.Keyboard()
	r, _ := kb.KeyRect('h')
	if !tapCenter(t, m, r) {
		t.Fatal("key missed")
	}
	if !tapCenter(t, m, MessagingSendButton) {
		t.Fatal("send missed")
	}
	if m.sent != 1 || m.sending || len(m.draft) != 0 {
		t.Fatalf("send state: sent=%d sending=%v draft=%d", m.sent, m.sending, len(m.draft))
	}
	// Send with empty draft and no attachment is spurious.
	if tapCenter(t, m, MessagingSendButton) {
		t.Fatal("empty send handled")
	}
}

func TestMovieStudioGuards(t *testing.T) {
	h := newFakeHost()
	ms := NewMovieStudio()
	ms.Init(h)
	ms.Enter(nil)
	if !tapCenter(t, ms, StudioProjectRect) {
		t.Fatal("project tap missed")
	}
	// Preview/export require at least one clip.
	if tapCenter(t, ms, StudioPreviewBtn) {
		t.Fatal("preview allowed with no clips")
	}
	if !tapCenter(t, ms, StudioAddClipBtn) {
		t.Fatal("add clip missed")
	}
	if !tapCenter(t, ms, StudioPreviewBtn) {
		t.Fatal("preview missed with a clip")
	}
	if !tapCenter(t, ms, StudioExportBtn) {
		t.Fatal("export missed")
	}
	if ms.exported != 1 {
		t.Fatalf("exported = %d", ms.exported)
	}
}

func TestEveryAppRegistersInteractions(t *testing.T) {
	// Every handled gesture must open a ground-truth interaction: the
	// paper's methodology needs a lag for each effective input.
	mkApps := func() []App {
		return []App{
			NewGallery(), NewLogoQuiz(), NewPulseNews(), NewMessaging(),
			NewMovieStudio(), NewFacebook(), NewGmail(),
			NewMusicPlayer(NewMusicService(false)), NewCalculator(),
			NewPlayStore(), NewBrowser(),
		}
	}
	taps := map[string]screen.Rect{
		GalleryName:     GalleryAlbumRects[0],
		LogoQuizName:    QuizPlayButton,
		PulseNewsName:   PulseRefreshButton,
		MessagingName:   MessagingThreadRects[0],
		MovieStudioName: StudioProjectRect,
		FacebookName:    FacebookLikeButton,
		GmailName:       GmailMailRects[0],
		MusicPlayerName: MusicPlayButton,
		CalculatorName:  CalcKeyRect(5),
		PlayStoreName:   StoreAppCardRect,
		BrowserName:     BrowserURLBar,
	}
	for _, a := range mkApps() {
		h := newFakeHost()
		a.Init(h)
		a.Enter(nil)
		r := taps[a.Name()]
		if !tapCenter(t, a, r) {
			t.Errorf("%s: canonical tap missed", a.Name())
			continue
		}
		if len(h.started) == 0 {
			t.Errorf("%s: handled tap registered no interaction", a.Name())
		}
		if h.finished == 0 {
			t.Errorf("%s: interaction never finished under synchronous host", a.Name())
		}
	}
}

func TestEveryInteractionChangesRender(t *testing.T) {
	// Render the canonical tap's before/after states: they must differ,
	// otherwise the suggester has no ending to find (the §II-E requirement).
	type probe struct {
		app App
		r   screen.Rect
	}
	probes := []probe{
		{NewGallery(), GalleryAlbumRects[0]},
		{NewPulseNews(), PulseRefreshButton},
		{NewFacebook(), FacebookLikeButton},
		{NewCalculator(), CalcKeyRect(7)},
		{NewBrowser(), BrowserURLBar},
	}
	for _, p := range probes {
		h := newFakeHost()
		p.app.Init(h)
		p.app.Enter(nil)
		var before, after screen.Framebuffer
		h.render(t, p.app, &before)
		if !tapCenter(t, p.app, p.r) {
			t.Errorf("%s: tap missed", p.app.Name())
			continue
		}
		h.render(t, p.app, &after)
		if before.Pix == after.Pix {
			t.Errorf("%s: interaction produced no visible change", p.app.Name())
		}
	}
}

func TestScrollsAreVisible(t *testing.T) {
	// The bug class found during calibration: scroll interactions must
	// change the rendered frame.
	h := newFakeHost()
	ms := NewMovieStudio()
	ms.Init(h)
	ms.Enter(nil)
	tapCenter(t, ms, StudioProjectRect)
	tapCenter(t, ms, StudioAddClipBtn)
	var before, after screen.Framebuffer
	h.render(t, ms, &before)
	if !ms.HandleSwipe(540, 1400, 540, 500) {
		t.Fatal("scrub swipe missed")
	}
	h.render(t, ms, &after)
	if before.Pix == after.Pix {
		t.Fatal("scrub produced no visible change")
	}
}

func TestLauncherIconsAndWarmLaunch(t *testing.T) {
	h := newFakeHost()
	l := NewLauncher([]string{GalleryName, CalculatorName})
	l.Init(h)
	r, ok := l.IconRect(GalleryName)
	if !ok {
		t.Fatal("gallery icon missing")
	}
	if _, ok := l.IconRect("nope"); ok {
		t.Fatal("phantom icon")
	}
	if !tapCenter(t, l, r) {
		t.Fatal("icon tap missed")
	}
	if h.launched != GalleryName {
		t.Fatalf("launched %q", h.launched)
	}
	if !l.coldDone[GalleryName] {
		t.Fatal("cold launch not recorded")
	}
}

func TestMusicServiceToggle(t *testing.T) {
	svc := NewMusicService(true)
	h := newFakeHost()
	svc.Start(h)
	if !svc.Playing() {
		t.Fatal("autoplay off")
	}
	svc.SetPlaying(false)
	if svc.Playing() {
		t.Fatal("toggle failed")
	}
	if h.deferredWork == 0 {
		t.Fatal("service scheduled no timer")
	}
	if h.quietTimers != 0 {
		t.Fatal("a playing decoder armed its tick quietly")
	}

	// A paused decoder arms its tick quietly, and playback wakes that tick
	// once, before it starts.
	svc = NewMusicService(false)
	h = newFakeHost()
	svc.Start(h)
	if h.quietTimers != 1 {
		t.Fatalf("a paused decoder armed %d quiet ticks, want 1", h.quietTimers)
	}
	svc.SetPlaying(false)
	svc.SetPlaying(true)
	svc.SetPlaying(true)
	if len(h.woken) != 1 || h.woken[0] != 1 || !svc.Playing() {
		t.Fatalf("play woke %v (playing %t), want the quiet tick 1 once", h.woken, svc.Playing())
	}
}

// tour drives one app through the screens the tests above reach, with its
// work queued, so the loading and progress states between a gesture and
// its result are on screen too. visit sees the app after every step of the
// walk, with what the step says about the clock, and after every queued
// work step a settle completes, with clock nil.
type tour struct {
	t     *testing.T
	h     *fakeHost
	a     App
	visit func(label string, clock *bool)
}

// tourStep is one step of a walk. clock says whether the screen after it
// shows a widget that moves with time alone (a spinner, the messaging send
// bar, the music progress bar) and so must read fb.Now.
type tourStep struct {
	name  string
	act   func(tr *tour)
	clock bool
}

func enter(cold bool) func(*tour) {
	return func(tr *tour) {
		var ix *Interaction
		if cold {
			ix = BeginInteraction(tr.h, "launch", core.CommonTask)
		}
		tr.a.Enter(ix)
	}
}

func tap(r screen.Rect) func(*tour) {
	return func(tr *tour) {
		if !tapCenter(tr.t, tr.a, r) {
			tr.t.Fatalf("%s: tap at %v missed", tr.a.Name(), r)
		}
	}
}

func key(c rune) func(*tour) {
	return func(tr *tour) {
		r, ok := tr.a.(interface{ Keyboard() *screen.Keyboard }).Keyboard().KeyRect(c)
		if !ok {
			tr.t.Fatalf("%s: no key %q", tr.a.Name(), c)
		}
		tap(r)(tr)
	}
}

// tapIcon taps a launcher icon.
func tapIcon(app string) func(*tour) {
	return func(tr *tour) {
		r, ok := tr.a.(*Launcher).IconRect(app)
		if !ok {
			tr.t.Fatalf("no %s icon", app)
		}
		tap(r)(tr)
	}
}

func swipe(tr *tour) {
	if !tr.a.HandleSwipe(540, 1400, 540, 500) {
		tr.t.Fatalf("%s: swipe ignored", tr.a.Name())
	}
}

func back(tr *tour) {
	if !tr.a.HandleBack() {
		tr.t.Fatalf("%s: back ignored", tr.a.Name())
	}
}

// work completes one queued work or IO step.
func work(tr *tour) {
	if !tr.h.step() {
		tr.t.Fatalf("%s: no work queued", tr.a.Name())
	}
}

// settle completes every queued step, visiting the app after each.
func settle(tr *tour) {
	for tr.h.step() {
		tr.visit("settling", nil)
	}
}

func then(acts ...func(*tour)) func(*tour) {
	return func(tr *tour) {
		for _, act := range acts {
			act(tr)
		}
	}
}

// appTour is one app's walk: how to build the app and the steps to take.
type appTour struct {
	mk    func() App
	steps []tourStep
}

// appTours walks every app, launcher included.
var appTours = []appTour{
	{func() App { return NewGallery() }, []tourStep{
		{"cold load", enter(true), true},
		{"albums", settle, false},
		{"album loading", tap(GalleryAlbumRects[1]), true},
		{"album", settle, false},
		{"photo", then(tap(GalleryPhotoRects[0]), settle), false},
		{"edit", then(tap(GalleryEditButton), settle), false},
		{"filtering", tap(GalleryFilterButton), false},
		{"filtered", settle, false},
		{"saving", tap(GallerySaveButton), false},
		{"saved", settle, false},
		{"back to photo", then(back, settle), false},
		{"back to album", then(back, settle), false},
		{"back to albums", then(back, settle), false},
	}},
	{func() App { return NewLogoQuiz() }, []tourStep{
		{"cold load starts", enter(true), false},
		{"cold load", work, true},
		{"menu", settle, false},
		{"level", then(tap(QuizPlayButton), settle), false},
		{"key held", key('n'), false},
		{"typed", then(settle, key('i'), key('k'), key('e'), settle), false},
		{"checked", then(tap(QuizSubmitButton), work), false},
		{"submitted", settle, false},
	}},
	{func() App { return NewPulseNews() }, []tourStep{
		{"cold load", enter(true), false},
		{"feed", settle, false},
		{"refreshing", tap(PulseRefreshButton), true},
		{"refreshed", settle, false},
		{"story", then(tap(PulseTileRects[0]), settle), false},
	}},
	{func() App { return NewMessaging() }, []tourStep{
		{"cold load", enter(true), false},
		{"threads", settle, false},
		{"thread", then(tap(MessagingThreadRects[1]), settle), false},
		{"key held", key('h'), false},
		{"draft", settle, false},
		{"sending", tap(MessagingSendButton), true},
		{"sent", settle, false},
	}},
	{func() App { return NewMovieStudio() }, []tourStep{
		{"cold load", enter(true), false},
		{"projects", settle, false},
		{"editor", then(tap(StudioProjectRect), settle), false},
		{"clip", then(tap(StudioAddClipBtn), settle), false},
		{"previewing", tap(StudioPreviewBtn), false},
		{"previewed", settle, false},
		{"exporting", tap(StudioExportBtn), false},
		{"exported", settle, false},
		{"scrubbed", then(swipe, settle), false},
	}},
	{func() App { return NewFacebook() }, []tourStep{
		{"feed", enter(false), false},
		{"liking", tap(FacebookLikeButton), false},
		{"liked", settle, false},
		{"comment", then(tap(FacebookCommentButton), settle), false},
		{"key held", key('a'), false},
		{"typed", settle, false},
	}},
	{func() App { return NewGmail() }, []tourStep{
		{"inbox", enter(false), false},
		{"mail", then(tap(GmailMailRects[1]), settle), false},
		{"compose", then(tap(GmailReplyButton), settle), false},
		{"key held", key('a'), false},
		{"typed", settle, false},
		{"sending", tap(GmailSendButton), false},
		{"sent", settle, false},
	}},
	{func() App { return NewMusicPlayer(NewMusicService(false)) }, []tourStep{
		{"cold load", enter(true), false},
		{"stopped", settle, false},
		{"playing", then(tap(MusicPlayButton), settle), true},
		{"paused", then(tap(MusicPlayButton), settle), false},
		{"opening track", tap(MusicNextButton), false},
		{"next track", settle, false},
	}},
	{func() App { return NewCalculator() }, []tourStep{
		{"cold load", enter(true), false},
		{"keypad", settle, false},
		{"key pressed", tap(CalcKeyRect(7)), false},
		{"typed", settle, false},
	}},
	{func() App { return NewPlayStore() }, []tourStep{
		{"cold load", enter(true), false},
		{"front", settle, false},
		{"scrolled", then(swipe, settle), false},
		{"detail", then(tap(StoreAppCardRect), settle), false},
		{"installing", tap(StoreInstallButton), false},
		{"unpacking", work, false},
		{"installed", settle, false},
	}},
	{func() App { return NewBrowser() }, []tourStep{
		{"cold load", enter(true), false},
		{"page", settle, false},
		{"loading", tap(BrowserURLBar), true},
		{"loaded", settle, false},
		{"scrolled", then(swipe, settle), false},
	}},
	{func() App { return NewRetroRunner() }, []tourStep{
		{"cold load", enter(true), false},
		{"menu", settle, false},
		{"loading level", tap(GamePlayButton), false},
		{"frame due", work, false},
		{"playing", settle, false},
		{"note", then(tap(GameNoteLanes[1]), settle), false},
		{"stopped", then(tap(GameStopButton), settle), false},
	}},
	{func() App { return NewLauncher([]string{GalleryName, CalculatorName}) }, []tourStep{
		{"home", enter(false), false},
		{"launching", tapIcon(GalleryName), false},
		{"launched", settle, false},
	}},
}

// walkApps runs every tour, calling visit on each app state it reaches.
func walkApps(t *testing.T, visit func(h *fakeHost, a App, label string, clock *bool)) {
	for _, at := range appTours {
		at.walk(t, len(at.steps), visit)
	}
}

// walk takes a fresh app through the tour's first n steps, calling visit on
// each state it reaches, and returns the app and its host.
func (at appTour) walk(t *testing.T, n int, visit func(h *fakeHost, a App, label string, clock *bool)) (App, *fakeHost) {
	a := at.mk()
	h := newFakeHost()
	h.queueWork = true
	a.Init(h)
	tr := &tour{t: t, h: h, a: a}
	for _, st := range at.steps[:n] {
		tr.visit = func(label string, clock *bool) {
			visit(h, a, a.Name()+"/"+st.name+": "+label, clock)
		}
		st.act(tr)
		clock := st.clock
		tr.visit("after", &clock)
	}
	return a, h
}

// TestRenderReadsTimeOnlyThroughFramebuffer pins the contract the device's
// demand-driven redraw rests on: a Render never asks the host for the time
// (fakeHost.Now reports it), and it reads fb.Now exactly while a widget that
// moves with time alone is on screen. The device redraws such frames every
// vsync and keeps every other frame until the app invalidates it, so a
// spinner that stopped reading fb.Now would freeze in the captured video,
// and a frame that read it needlessly would be redrawn for nothing.
func TestRenderReadsTimeOnlyThroughFramebuffer(t *testing.T) {
	walkApps(t, func(h *fakeHost, a App, label string, clock *bool) {
		var fb screen.Framebuffer
		got := h.render(t, a, &fb)
		if clock != nil && got != *clock {
			t.Errorf("%s: frame read fb.Now = %t, want %t", label, got, *clock)
		}
	})
}

// TestRenderPaintsWholeContentRect pins what lets the device render without
// clearing its framebuffer first: every Render paints every pixel of
// screen.ContentRect (framebuffer rows 7–89), so whatever the previous
// frame left there never shows through. Each state renders into a
// framebuffer filled with a shade no widget uses and into a zeroed one; the
// content rows must come out identical.
func TestRenderPaintsWholeContentRect(t *testing.T) {
	const unusedShade uint8 = 77
	_, y0, _, h := screen.FBRect(screen.ContentRect)
	if y0 != 7 || y0+h != 90 {
		t.Fatalf("content rows %d..%d, want 7..89", y0, y0+h-1)
	}
	rows := func(fb *screen.Framebuffer) []uint8 { return fb.Pix[y0*screen.FBW : (y0+h)*screen.FBW] }
	walkApps(t, func(host *fakeHost, a App, label string, _ *bool) {
		var zeroed, stale screen.Framebuffer
		stale.FillRectFB(0, 0, screen.FBW, screen.FBH, unusedShade)
		host.render(t, a, &zeroed)
		host.render(t, a, &stale)
		for i, p := range rows(&stale) {
			if p != rows(&zeroed)[i] {
				t.Errorf("%s: pixel (%d,%d) left unpainted", label, i%screen.FBW, y0+i/screen.FBW)
				break
			}
		}
	})
}
