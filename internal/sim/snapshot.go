package sim

// EngineSnap is a deep copy of an engine's scheduling state: clock, event
// queue, slot pool and sequence counter. It is a value-copy snapshot — queue
// entries and slots are plain values, and the func values held by live slots
// are copied by reference, which is exactly what checkpoint/restore needs:
// the closures themselves persist across a restore, only their scheduling is
// rewound. A snap's buffers are reused across Snapshot calls, so a
// steady-state checkpoint cycle performs no allocations once the buffers
// have grown to the high-water mark.
type EngineSnap struct {
	now      Time
	queue    []queueEnt
	slots    []event
	freeHead int32
	nextSeq  uint64
}

// Snapshot copies the engine's complete scheduling state into s.
func (e *Engine) Snapshot(s *EngineSnap) {
	s.now = e.now
	s.queue = append(s.queue[:0], e.queue...)
	// Clear slots the snapshot is shrinking away from so the buffer does not
	// pin closures from a previous, larger snapshot.
	if len(s.slots) > len(e.slots) {
		for i := len(e.slots); i < len(s.slots); i++ {
			s.slots[i] = event{}
		}
	}
	s.slots = append(s.slots[:0], e.slots...)
	s.freeHead = e.freeHead
	s.nextSeq = e.nextSeq
}

// Restore rewinds the engine to the state captured by Snapshot. Events
// scheduled after the snapshot vanish; events that were pending at snapshot
// time are pending again, with identical timestamps and FIFO ordering, so a
// restored run replays bit-for-bit.
func (e *Engine) Restore(s *EngineSnap) {
	e.now = s.now
	e.queue = append(e.queue[:0], s.queue...)
	if len(e.slots) > len(s.slots) {
		for i := len(s.slots); i < len(e.slots); i++ {
			e.slots[i] = event{}
		}
	}
	e.slots = append(e.slots[:0], s.slots...)
	e.freeHead = s.freeHead
	e.nextSeq = s.nextSeq
	e.stopped = false
}

// Reseed resets the generator in place to the stream NewRand(seed) would
// produce, preserving pointer identity for closures that captured it.
func (r *Rand) Reseed(seed uint64) {
	r.state = seed
	r.Uint64()
}

// State returns the generator's raw state word for checkpointing.
func (r *Rand) State() uint64 { return r.state }

// SetState restores a state word captured by State.
func (r *Rand) SetState(s uint64) { r.state = s }
