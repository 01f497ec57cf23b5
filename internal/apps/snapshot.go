package apps

import "repro/internal/snap"

// This file implements App.SaveState/LoadState for every application, plus
// the StatefulService interface for background services that carry mutable
// state. The device checkpoint layer saves them once, at the boot instant,
// and loads them on every restore, so each forked replay starts from the
// same app state machines.
//
// Restore safety: app state is plain values (screen ids, counters, drafts),
// so save/load round-trips exactly. What is NOT captured here is control
// flow suspended inside an in-flight interaction — those live as engine
// events whose closures capture locals. None exists at the boot instant,
// the only instant a device is checkpointed; see docs/performance.md.

// StatefulService is implemented by services whose runtime state can change
// after Start (e.g. the music decoder's play/pause flag). Stateless services
// need not implement it.
type StatefulService interface {
	Service
	SaveState(b *snap.Buf)
	LoadState(b *snap.Buf)
}

// saveBase/loadBase handle the embedded Base. The bound Host is identity,
// not state, and is left untouched.
func (b *Base) saveBase(s *snap.Buf) { s.PutBool(b.InFlight) }
func (b *Base) loadBase(s *snap.Buf) { b.InFlight = s.Bool() }

// SaveState implements App.
func (g *Gallery) SaveState(b *snap.Buf) {
	g.saveBase(b)
	b.PutStr(g.screenID)
	b.PutInt(int64(g.loadedItems))
	b.PutInt(int64(g.album))
	b.PutInt(int64(g.photo))
	b.PutInt(int64(g.scroll))
	b.PutInt(int64(g.filterGen))
	b.PutBool(g.filtered)
	b.PutBool(g.saving)
	b.PutFloat(g.saveFrac)
	b.PutStr(g.toast)
}

// LoadState implements App.
func (g *Gallery) LoadState(b *snap.Buf) {
	g.loadBase(b)
	g.screenID = b.Str()
	g.loadedItems = int(b.Int())
	g.album = int(b.Int())
	g.photo = int(b.Int())
	g.scroll = int(b.Int())
	g.filterGen = int(b.Int())
	g.filtered = b.Bool()
	g.saving = b.Bool()
	g.saveFrac = b.Float()
	g.toast = b.Str()
}

// SaveState implements App. The icon grid is construction-time constant;
// only the cold-launch ledger is state, saved in icon order so the byte
// stream is deterministic.
func (l *Launcher) SaveState(b *snap.Buf) {
	l.saveBase(b)
	for _, ic := range l.icons {
		b.PutBool(l.coldDone[ic.app])
	}
}

// LoadState implements App.
func (l *Launcher) LoadState(b *snap.Buf) {
	l.loadBase(b)
	for _, ic := range l.icons {
		if b.Bool() {
			l.coldDone[ic.app] = true
		} else {
			delete(l.coldDone, ic.app)
		}
	}
}

// SaveState implements App.
func (g *RetroRunner) SaveState(b *snap.Buf) {
	g.saveBase(b)
	b.PutStr(g.screenID)
	b.PutInt(int64(g.score))
	b.PutInt(int64(g.combo))
	b.PutInt(int64(g.phase))
	b.PutInt(int64(g.TotalFrames))
	b.PutInt(int64(g.DroppedFrames))
	b.PutBool(g.sessionOn)
	b.PutInt(int64(g.sessionGen))
	b.PutInt(int64(g.frameSeq))
	b.PutInt(int64(g.outstanding))
}

// LoadState implements App.
func (g *RetroRunner) LoadState(b *snap.Buf) {
	g.loadBase(b)
	g.screenID = b.Str()
	g.score = int(b.Int())
	g.combo = int(b.Int())
	g.phase = int(b.Int())
	g.TotalFrames = int(b.Int())
	g.DroppedFrames = int(b.Int())
	g.sessionOn = b.Bool()
	g.sessionGen = int(b.Int())
	g.frameSeq = int(b.Int())
	g.outstanding = int(b.Int())
}

func saveRunes(b *snap.Buf, rs []rune) {
	b.PutInt(int64(len(rs)))
	for _, r := range rs {
		b.PutInt(int64(r))
	}
}

func loadRunes(b *snap.Buf, dst []rune) []rune {
	n := int(b.Int())
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, rune(b.Int()))
	}
	return dst
}

// SaveState implements App.
func (q *LogoQuiz) SaveState(b *snap.Buf) {
	q.saveBase(b)
	b.PutStr(q.screenID)
	b.PutInt(int64(q.level))
	b.PutInt(int64(q.menuOffset))
	saveRunes(b, q.answer)
	b.PutInt(int64(q.lastKey))
	b.PutBool(q.solved)
	b.PutInt(int64(q.loading))
}

// LoadState implements App.
func (q *LogoQuiz) LoadState(b *snap.Buf) {
	q.loadBase(b)
	q.screenID = b.Str()
	q.level = int(b.Int())
	q.menuOffset = int(b.Int())
	q.answer = loadRunes(b, q.answer)
	q.lastKey = rune(b.Int())
	q.solved = b.Bool()
	q.loading = int(b.Int())
}

// SaveState implements App.
func (m *Messaging) SaveState(b *snap.Buf) {
	m.saveBase(b)
	b.PutStr(m.screenID)
	b.PutInt(int64(m.thread))
	b.PutInt(int64(m.loaded))
	saveRunes(b, m.draft)
	b.PutInt(int64(m.sent))
	b.PutInt(int64(m.scroll))
	b.PutBool(m.attached)
	b.PutBool(m.sending)
	b.PutInt(int64(m.lastKey))
}

// LoadState implements App.
func (m *Messaging) LoadState(b *snap.Buf) {
	m.loadBase(b)
	m.screenID = b.Str()
	m.thread = int(b.Int())
	m.loaded = int(b.Int())
	m.draft = loadRunes(b, m.draft)
	m.sent = int(b.Int())
	m.scroll = int(b.Int())
	m.attached = b.Bool()
	m.sending = b.Bool()
	m.lastKey = rune(b.Int())
}

// SaveState implements App.
func (ms *MovieStudio) SaveState(b *snap.Buf) {
	ms.saveBase(b)
	b.PutStr(ms.screenID)
	b.PutInt(int64(ms.loading))
	b.PutInt(int64(ms.clips))
	b.PutInt(int64(ms.scrubPos))
	b.PutBool(ms.rendering)
	b.PutFloat(ms.renderFrac)
	b.PutInt(int64(ms.exported))
}

// LoadState implements App.
func (ms *MovieStudio) LoadState(b *snap.Buf) {
	ms.loadBase(b)
	ms.screenID = b.Str()
	ms.loading = int(b.Int())
	ms.clips = int(b.Int())
	ms.scrubPos = int(b.Int())
	ms.rendering = b.Bool()
	ms.renderFrac = b.Float()
	ms.exported = int(b.Int())
}

// SaveState implements App.
func (p *PulseNews) SaveState(b *snap.Buf) {
	p.saveBase(b)
	b.PutStr(p.screenID)
	b.PutInt(int64(p.stories))
	b.PutInt(int64(p.story))
	b.PutInt(int64(p.offset))
	b.PutInt(int64(p.gen))
}

// LoadState implements App.
func (p *PulseNews) LoadState(b *snap.Buf) {
	p.loadBase(b)
	p.screenID = b.Str()
	p.stories = int(b.Int())
	p.story = int(b.Int())
	p.offset = int(b.Int())
	p.gen = int(b.Int())
}

// SaveState implements App.
func (f *Facebook) SaveState(b *snap.Buf) {
	f.saveBase(b)
	b.PutStr(f.screenID)
	b.PutInt(int64(f.loaded))
	b.PutInt(int64(f.offset))
	b.PutInt(int64(f.likes))
	b.PutInt(int64(f.draft))
	b.PutInt(int64(f.lastKey))
}

// LoadState implements App.
func (f *Facebook) LoadState(b *snap.Buf) {
	f.loadBase(b)
	f.screenID = b.Str()
	f.loaded = int(b.Int())
	f.offset = int(b.Int())
	f.likes = int(b.Int())
	f.draft = int(b.Int())
	f.lastKey = rune(b.Int())
}

// SaveState implements App.
func (g *Gmail) SaveState(b *snap.Buf) {
	g.saveBase(b)
	b.PutStr(g.screenID)
	b.PutInt(int64(g.loaded))
	b.PutInt(int64(g.mail))
	b.PutInt(int64(g.draft))
	b.PutInt(int64(g.sent))
	b.PutInt(int64(g.lastKey))
}

// LoadState implements App.
func (g *Gmail) LoadState(b *snap.Buf) {
	g.loadBase(b)
	g.screenID = b.Str()
	g.loaded = int(b.Int())
	g.mail = int(b.Int())
	g.draft = int(b.Int())
	g.sent = int(b.Int())
	g.lastKey = rune(b.Int())
}

// SaveState implements App. The bound MusicService saves its own state as a
// StatefulService; only the player UI state lives here.
func (m *MusicPlayer) SaveState(b *snap.Buf) {
	m.saveBase(b)
	b.PutInt(int64(m.loading))
	b.PutBool(m.playing)
	b.PutInt(int64(m.track))
}

// LoadState implements App.
func (m *MusicPlayer) LoadState(b *snap.Buf) {
	m.loadBase(b)
	m.loading = int(b.Int())
	m.playing = b.Bool()
	m.track = int(b.Int())
}

// SaveState implements App.
func (c *Calculator) SaveState(b *snap.Buf) {
	c.saveBase(b)
	b.PutBool(c.loaded)
	b.PutInt(int64(c.display))
}

// LoadState implements App.
func (c *Calculator) LoadState(b *snap.Buf) {
	c.loadBase(b)
	c.loaded = b.Bool()
	c.display = int(b.Int())
}

// SaveState implements App.
func (p *PlayStore) SaveState(b *snap.Buf) {
	p.saveBase(b)
	b.PutStr(p.screenID)
	b.PutInt(int64(p.loading))
	b.PutInt(int64(p.scroll))
	b.PutBool(p.installing)
	b.PutFloat(p.installFrac)
	b.PutInt(int64(p.installed))
}

// LoadState implements App.
func (p *PlayStore) LoadState(b *snap.Buf) {
	p.loadBase(b)
	p.screenID = b.Str()
	p.loading = int(b.Int())
	p.scroll = int(b.Int())
	p.installing = b.Bool()
	p.installFrac = b.Float()
	p.installed = int(b.Int())
}

// SaveState implements App.
func (br *Browser) SaveState(b *snap.Buf) {
	br.saveBase(b)
	b.PutInt(int64(br.page))
	b.PutInt(int64(br.loaded))
	b.PutInt(int64(br.scrollY))
}

// LoadState implements App.
func (br *Browser) LoadState(b *snap.Buf) {
	br.loadBase(b)
	br.page = int(b.Int())
	br.loaded = int(b.Int())
	br.scrollY = int(b.Int())
}

// SaveState implements StatefulService: the play/pause flag is the decoder's
// only post-Start mutable state.
func (s *MusicService) SaveState(b *snap.Buf) { b.PutBool(s.playing) }

// LoadState implements StatefulService.
func (s *MusicService) LoadState(b *snap.Buf) { s.playing = b.Bool() }
