// Package record implements the paper's record-and-replay mechanism
// (§II-B): a getevent-style recorder that captures the device's input event
// stream with exact timestamps, an accurate replay agent ("this agent knows
// the input event trace we recorded and replays it with accurate timings"),
// and — for contrast — a naive sendevent-style replayer whose per-event
// processing delay accumulates into exactly the timing drift that made the
// paper's authors write their own agent.
package record

import (
	"io"

	"repro/internal/device"
	"repro/internal/evdev"
	"repro/internal/sim"
)

// Recorder captures input events flowing into a device, like `getevent -t`
// running on the phone.
type Recorder struct {
	events []evdev.Event
}

// Attach subscribes a new recorder to the device input bus.
func Attach(d *device.Device) *Recorder {
	r := &Recorder{}
	d.Subscribe(func(ev evdev.Event) { r.events = append(r.events, ev) })
	return r
}

// Events returns the captured trace.
func (r *Recorder) Events() []evdev.Event { return r.events }

// Write serialises the trace in getevent text format.
func (r *Recorder) Write(w io.Writer) error {
	return evdev.MarshalGetevent(w, evdev.DefaultDeviceNode, r.events)
}

// Agent replays a recorded event trace into a device with accurate timings.
// Per the paper's repeatability analysis, replay must be millisecond-
// accurate; the agent schedules every event at its recorded timestamp with
// only a small per-gesture injection error (default ±1 ms) standing in for
// kernel scheduling noise across repetitions.
type Agent struct {
	// GestureJitter is the ± injection error applied uniformly to all
	// events of one gesture, preserving intra-gesture spacing.
	GestureJitter sim.Duration

	// Replay cursor: one in-flight engine event at a time. Keeping the
	// cursor on the agent (not in a closure) lets one pre-bound step re-arm
	// every event, and a replay session reuse the agent for every fork.
	dev    *device.Device
	events []evdev.Event
	rnd    *sim.Rand
	next   int
	offset sim.Duration
	last   sim.Time
	step   func()
}

// NewAgent returns an agent with ±1 ms per-gesture injection error.
func NewAgent() *Agent { return &Agent{GestureJitter: 1 * sim.Millisecond} }

// Replay starts replaying the trace onto the device's engine. rnd drives the
// per-gesture jitter (pass nil for exact replay). Call before running the
// engine.
//
// Events are scheduled lazily, one at a time: injecting event i schedules
// event i+1 at its (jittered, monotonic) timestamp. The adjusted times are
// non-decreasing, so firing order equals trace order, while the engine's
// queue holds a single agent event instead of the whole trace — thousands of
// pre-scheduled events used to dominate the heap depth every push and pop
// paid for. Jitter draws happen in trace order exactly as the pre-scheduling
// variant made them, so replays remain seed-for-seed deterministic.
func (a *Agent) Replay(d *device.Device, events []evdev.Event, rnd *sim.Rand) {
	a.dev, a.events, a.rnd = d, events, rnd
	a.next, a.offset, a.last = 0, 0, sim.Time(-1)
	if a.step == nil {
		a.step = a.injectNext
	}
	a.scheduleNext()
}

// scheduleNext arms the engine event for the next trace event, drawing the
// per-gesture jitter offset when that event starts a new gesture.
func (a *Agent) scheduleNext() {
	if a.next >= len(a.events) {
		return
	}
	ev := a.events[a.next]
	if ev.Type == evdev.EVAbs && ev.Code == evdev.AbsMTTrackingID && ev.Value != evdev.TrackingRelease {
		// New gesture: draw a fresh injection offset.
		if a.rnd != nil && a.GestureJitter > 0 {
			a.offset = a.rnd.Jitter(a.GestureJitter)
		}
	}
	at := ev.Time.Add(a.offset)
	if at < a.last {
		at = a.last // keep the stream monotonic
	}
	a.last = at
	a.dev.Eng.AtFunc(at, a.step)
}

// injectNext delivers the due event. The successor is scheduled before the
// injection so that, at equal timestamps, the next trace event keeps a lower
// sequence number than anything the injection itself schedules — the same
// ordering the old schedule-everything-upfront strategy produced.
func (a *Agent) injectNext() {
	ev := a.events[a.next]
	a.next++
	a.scheduleNext()
	a.dev.Inject(ev)
}

// NaiveReplay models the stock sendevent tool, which the paper found "very
// basic and does not provide enough functionality and performance to replay
// our recorded event trace accurately": each event write costs perEventDelay
// of processing, so the injected trace drifts further and further behind the
// recording. Returns the final accumulated drift.
func NaiveReplay(d *device.Device, events []evdev.Event, perEventDelay sim.Duration) sim.Duration {
	if perEventDelay <= 0 {
		perEventDelay = 1200 * sim.Microsecond
	}
	var drift sim.Duration
	var prev sim.Time
	cursor := sim.Time(0)
	for i, ev := range events {
		ev := ev
		if i > 0 {
			gap := ev.Time.Sub(prev)
			cursor = cursor.Add(gap)
		}
		prev = ev.Time
		// Each write blocks for perEventDelay before the event lands.
		cursor = cursor.Add(perEventDelay)
		drift = cursor.Sub(ev.Time)
		d.Eng.AtFunc(cursor, func() { d.Inject(ev) })
	}
	return drift
}
