package video

import "repro/internal/sim"

// FramePool recycles Frame objects and their pixel storage across replays.
// A replay sweep captures tens of thousands of frames per run and discards
// the whole video as soon as the matcher has consumed it; without a pool
// every distinct frame is a fresh ~5 KB allocation that lives just long
// enough to make the GC sweat. A worker that owns a pool captures frames
// from it and hands the finished video back with Release, so the next
// repetition replays with zero frame allocations in steady state.
//
// The pool also keeps the last released video, so the next recorder it
// builds appends into that video's run storage instead of regrowing a run
// slice from empty.
//
// Discipline: only release a video whose frames nothing else retains. The
// annotation video is the canonical counter-example — its frames live on
// inside the annotation DB entries and must come from plain NewFrame.
// A FramePool is not safe for concurrent use; sweeps give each worker its
// own (see the experiment package's per-worker scratch).
type FramePool struct {
	free  []*Frame
	spare *Video // last released video, emptied
}

// NewFramePool returns an empty pool.
func NewFramePool() *FramePool { return &FramePool{} }

// Capture returns a frame holding a copy of pix, reusing pooled storage
// when available. A nil pool degenerates to
// a plain allocation, so callers can thread an optional pool unconditionally.
func (p *FramePool) Capture(pix []uint8) *Frame {
	if p == nil || len(p.free) == 0 {
		buf := make([]uint8, len(pix))
		copy(buf, pix)
		return NewFrame(buf)
	}
	n := len(p.free) - 1
	f := p.free[n]
	p.free[n] = nil
	p.free = p.free[:n]
	if len(f.pix) != len(pix) {
		f.pix = make([]uint8, len(pix))
	}
	copy(f.pix, pix)
	return f
}

// Release returns every distinct frame of v to the pool and empties the
// video, which the pool keeps for its next recorder. The video and all
// frames obtained from it must not be used afterwards. Nil pool or video is
// a no-op.
func (p *FramePool) Release(v *Video) {
	if p == nil || v == nil {
		return
	}
	for i := range v.runs {
		if v.runs[i].Frame != nil {
			p.free = append(p.free, v.runs[i].Frame)
			v.runs[i].Frame = nil
		}
	}
	v.runs = v.runs[:0]
	p.spare = v
}

// video returns the last released video, emptied, at the given capture rate
// (0 → FPS), or a fresh one when there is none (or the pool is nil).
func (p *FramePool) video(fps int) *Video {
	if p == nil || p.spare == nil {
		return New(fps)
	}
	v := p.spare
	p.spare = nil
	if fps <= 0 {
		fps = FPS
	}
	v.fps = fps
	return v
}

// NewRecorder creates a recorder capturing from source into a video that
// reuses the run storage of the pool's last released one. A nil pool
// degenerates to the plain NewRecorder.
func (p *FramePool) NewRecorder(eng *sim.Engine, fps int, source func() *Frame) *Recorder {
	return newRecorder(eng, p.video(fps), source)
}

// Idle reports how many frames sit ready for reuse (test hook).
func (p *FramePool) Idle() int { return len(p.free) }
