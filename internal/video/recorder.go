package video

import "repro/internal/sim"

// Recorder samples a frame source at the capture rate, appending to a Video.
// It is the simulation's HDMI capture card: the device exposes its
// framebuffer through source, and the recorder ticks at 30 fps on the
// simulation engine.
//
// With a dirty probe attached (BindDirty), the recorder is demand driven:
// after capturing a frame whose source was already clean it stops scheduling
// ticks, and the probe owner wakes it on the first clean→dirty transition.
// The wake call must happen before the new content is rendered — the frames
// whose capture instants were slept through, up to and including the
// waking instant, are materialised from the still-clean source. That is
// what a polling tick reads at every slept-over instant but one: when the
// waking change lands exactly on a capture instant and its event was queued
// before that instant's polling tick (the device's minute tick is queued a
// minute ahead), polling shows the new content at that instant, and the
// woken recorder shows it one frame later. Without a probe the recorder
// polls every frame.
type Recorder struct {
	eng    *sim.Engine
	video  *Video
	source func() *Frame
	dirty  func() bool // nil → poll every frame
	start  sim.Time
	frame  int
	asleep bool
	stop   bool
	tickFn func()
}

// NewRecorder creates a recorder capturing from source into a fresh Video.
func NewRecorder(eng *sim.Engine, fps int, source func() *Frame) *Recorder {
	return newRecorder(eng, New(fps), source)
}

// newRecorder creates a recorder capturing from source into the empty v.
func newRecorder(eng *sim.Engine, v *Video, source func() *Frame) *Recorder {
	r := &Recorder{eng: eng, video: v, source: source}
	r.tickFn = r.tick
	return r
}

// BindDirty attaches the probe that reports whether the source may show new
// content since it was last read. Call before Start; the owner must call
// Wake on every clean→dirty transition of the probe, before mutating the
// content.
func (r *Recorder) BindDirty(dirty func() bool) { r.dirty = dirty }

// Video returns the recording (valid at any point; grows as capture runs).
func (r *Recorder) Video() *Video { return r.video }

// instant returns the capture time of frame i.
func (r *Recorder) instant(i int) sim.Time {
	return r.start.Add(sim.Duration(int64(i) * 1_000_000 / int64(r.video.fps)))
}

// Start schedules capture ticks beginning at time zero-offset from now.
// Frame i is captured at i/fps seconds from the start call.
func (r *Recorder) Start() {
	r.start = r.eng.Now()
	r.eng.AtFunc(r.start, r.tickFn)
}

func (r *Recorder) tick() {
	if r.stop {
		return
	}
	clean := r.dirty != nil && !r.dirty()
	r.video.Append(r.source())
	r.frame++
	if clean {
		// Nothing changed since the previous render: every upcoming frame is
		// identical until the source dirties, which Wake reports. Let the
		// tick chain die instead of burning an event per frame.
		r.asleep = true
		return
	}
	r.eng.AtFunc(r.instant(r.frame), r.tickFn)
}

// Wake resumes capture after a clean→dirty transition at the current virtual
// time. The caller invokes it before the content changes, so the slept-over
// capture instants, including one landing exactly now, append the old
// content. A polling tick at now would read the old content only if it was
// queued before the mutating event; otherwise polling shows the change one
// frame earlier (see Recorder).
func (r *Recorder) Wake() {
	if r.stop || !r.asleep {
		return
	}
	r.asleep = false
	r.backfill()
	r.eng.AtFunc(r.instant(r.frame), r.tickFn)
}

// backfill appends the capture instants slept through up to and including
// now as one run of the still-unchanged source.
func (r *Recorder) backfill() {
	if n := r.video.lastInstant(r.eng.Now()-r.start) + 1 - r.frame; n > 0 {
		r.video.AppendN(r.source(), n)
		r.frame += n
	}
}

// Stop halts capture after the current frame. A sleeping recorder first
// materialises the frames up to the current instant from the unchanged
// source, so the video is exactly as long as a polled capture's.
func (r *Recorder) Stop() {
	if r.asleep {
		r.backfill()
		r.asleep = false
	}
	r.stop = true
}
