package governor

import "repro/internal/sim"

// Interactive reproduces the Android interactive governor, "the standard
// governor for most Android mobile devices" (paper §III-B). It samples load
// on a fast timer and — its distinguishing feature — "reacts directly to
// incoming user input events and immediately ramps up the frequency while
// ignoring the load in those cases": any input event boosts the clock to at
// least HispeedKHz and holds it there for MinSampleTime.
//
// Above hispeed, the governor waits AboveHispeedDelay before climbing
// further, and it never ramps down within MinSampleTime of the last raise —
// the floor behaviour of the real driver.
type Interactive struct {
	// TimerRate is the load evaluation period (driver default 20 ms).
	TimerRate sim.Duration
	// GoHispeedLoad is the load percentage that triggers the jump to
	// HispeedKHz (driver default 85–99 depending on the image).
	GoHispeedLoad int
	// HispeedKHz is the intermediate "hispeed" frequency used for bursts
	// and input boosts. 1.50 GHz matches Nexus-5-class PowerHAL tuning.
	HispeedKHz int
	// AboveHispeedDelay is the wait before climbing beyond hispeed.
	AboveHispeedDelay sim.Duration
	// MinSampleTime is how long a raised frequency is held before the
	// governor may ramp down.
	MinSampleTime sim.Duration

	cpu        CPU
	meter      loadMeter
	tickFn     func()   // tick bound once at Start, so rescheduling never allocates
	hispeedIdx int      // HispeedKHz resolved onto the ladder once at Start
	lastRaise  sim.Time // time of the last frequency raise (floor timer)
	hispeedAt  sim.Time // when we first sat at/above hispeed under high load
	atHispeed  bool
}

// NewInteractive returns an interactive governor with Nexus-5-class
// tunables.
func NewInteractive() *Interactive {
	return &Interactive{
		TimerRate:         20 * sim.Millisecond,
		GoHispeedLoad:     85,
		HispeedKHz:        1497600,
		AboveHispeedDelay: 20 * sim.Millisecond,
		MinSampleTime:     80 * sim.Millisecond,
	}
}

// Name implements Governor.
func (g *Interactive) Name() string { return "interactive" }

// Start implements Governor.
func (g *Interactive) Start(cpu CPU) {
	g.cpu = cpu
	if g.TimerRate <= 0 {
		g.TimerRate = 20 * sim.Millisecond
	}
	if g.GoHispeedLoad <= 0 || g.GoHispeedLoad > 100 {
		g.GoHispeedLoad = 85
	}
	if g.HispeedKHz <= 0 {
		g.HispeedKHz = cpu.Table().Max()
	}
	if g.AboveHispeedDelay <= 0 {
		g.AboveHispeedDelay = 20 * sim.Millisecond
	}
	if g.MinSampleTime <= 0 {
		g.MinSampleTime = 80 * sim.Millisecond
	}
	g.meter.reset(cpu)
	g.hispeedIdx = cpu.Table().IndexAtLeast(g.HispeedKHz)
	g.tickFn = g.tick
	g.meter.arm(g.TimerRate, g.tickFn, false)
}

// OnInput implements Governor: the input boost. The frequency immediately
// rises to at least hispeed and the floor timer is re-armed, regardless of
// load — the behaviour the paper singles out.
func (g *Interactive) OnInput(at sim.Time) {
	if g.cpu == nil {
		return
	}
	boost := g.hispeedIdx
	// Compare against the pending request, not the applied index: while a
	// thermal cap holds the clock down, boosting over a higher pending
	// request would overwrite the governor's last real decision.
	if g.cpu.RequestedOPPIndex() < boost {
		g.cpu.RequestOPPIndex(boost)
	}
	g.lastRaise = at
	g.atHispeed = true
	g.hispeedAt = at
}

func (g *Interactive) tick() {
	load := g.meter.sample()
	tbl := g.cpu.Table()
	now := g.cpu.Now()
	cur := g.cpu.OPPIndex()
	hispeedIdx := g.hispeedIdx

	var target int
	if load >= g.GoHispeedLoad {
		if cur < hispeedIdx {
			target = hispeedIdx
		} else {
			// Saturated at/above hispeed: climb to max once the load has
			// stayed high for AboveHispeedDelay.
			if !g.atHispeed {
				g.atHispeed = true
				g.hispeedAt = now
			}
			if now.Sub(g.hispeedAt) >= g.AboveHispeedDelay {
				target = len(tbl) - 1
			} else {
				target = cur
			}
		}
	} else {
		g.atHispeed = false
		// Proportional target below the burst threshold.
		target = tbl.IndexAtLeast(int(int64(load) * int64(tbl.Max()) / 100))
	}

	if target > cur {
		g.cpu.RequestOPPIndex(target)
		g.lastRaise = now
	} else if target < cur {
		// Floor: hold the raised frequency for MinSampleTime.
		if now.Sub(g.lastRaise) >= g.MinSampleTime {
			g.cpu.RequestOPPIndex(target)
		}
	}
	g.meter.arm(g.TimerRate, g.tickFn, g.idleNoop())
}

// idleNoop reports whether the next sample, run on an idle domain, would
// change nothing: load 0 targets OPP 0, which the request and the clock
// already hold, and clears atHispeed, which is already clear. With hispeed
// above the floor an input boost raises the request, which wakes the
// sample; with hispeed at the floor a boost would set atHispeed unseen, so
// every sample stays live.
func (g *Interactive) idleNoop() bool {
	return !g.atHispeed && g.hispeedIdx > 0 && g.cpu.RequestedOPPIndex() == 0 && g.cpu.OPPIndex() == 0
}
