package governor

import "repro/internal/sim"

// Conservative reproduces the Linux conservative governor: like ondemand it
// samples load periodically, but instead of jumping to the maximum frequency
// it moves the requested frequency gracefully in FreqStepPct-of-max steps,
// "stay[ing] longer in intermediate steps" (paper §III-B). This smooth ramp
// is why the paper finds it significantly more irritating: a burst that
// ondemand serves at 2.15 GHz within one sample takes conservative ~17 steps
// to reach the top.
type Conservative struct {
	// SamplingRate is the load sampling period.
	SamplingRate sim.Duration
	// UpThreshold raises the requested frequency when exceeded (default 80).
	UpThreshold int
	// DownThreshold lowers the requested frequency when load falls below it
	// (default 20).
	DownThreshold int
	// FreqStepPct is the step size as a percentage of the maximum frequency
	// (default 5).
	FreqStepPct int

	cpu       CPU
	meter     loadMeter
	tickFn    func() // tick bound once at Start, so rescheduling never allocates
	requested int    // continuously tracked requested frequency in kHz
}

// NewConservative returns a conservative governor with kernel-default
// tunables (conservative ships with a slower sampling rate than ondemand,
// compounding its gradual 5%-of-max steps).
func NewConservative() *Conservative {
	return &Conservative{
		SamplingRate:  120 * sim.Millisecond,
		UpThreshold:   80,
		DownThreshold: 20,
		FreqStepPct:   5,
	}
}

// Name implements Governor.
func (g *Conservative) Name() string { return "conservative" }

// Start implements Governor.
func (g *Conservative) Start(cpu CPU) {
	g.cpu = cpu
	if g.SamplingRate <= 0 {
		g.SamplingRate = 50 * sim.Millisecond
	}
	if g.UpThreshold <= 0 || g.UpThreshold > 100 {
		g.UpThreshold = 80
	}
	if g.DownThreshold < 0 || g.DownThreshold >= g.UpThreshold {
		g.DownThreshold = 20
	}
	if g.FreqStepPct <= 0 {
		g.FreqStepPct = 5
	}
	g.requested = cpu.Table()[cpu.OPPIndex()].KHz
	g.meter.reset(cpu)
	g.tickFn = g.tick
	g.meter.arm(g.SamplingRate, g.tickFn, false)
}

// OnInput implements Governor; conservative ignores input events.
func (g *Conservative) OnInput(sim.Time) {}

func (g *Conservative) tick() {
	load := g.meter.sample()
	tbl := g.cpu.Table()
	step := tbl.Max() * g.FreqStepPct / 100

	switch {
	case load > g.UpThreshold:
		g.requested += step
		if g.requested > tbl.Max() {
			g.requested = tbl.Max()
		}
		g.cpu.RequestOPPIndex(tbl.IndexAtLeast(g.requested))
	case load < g.DownThreshold:
		g.requested -= step
		if g.requested < tbl.Min() {
			g.requested = tbl.Min()
		}
		g.cpu.RequestOPPIndex(tbl.IndexAtMost(g.requested))
	}
	// On an idle domain the next sample reads load 0, which can only walk
	// the tracked frequency down: a no-op once it sits at the ladder's floor
	// and the request and the clock at OPP 0.
	g.meter.arm(g.SamplingRate, g.tickFn,
		g.requested == tbl.Min() && g.cpu.RequestedOPPIndex() == 0 && g.cpu.OPPIndex() == 0)
}
