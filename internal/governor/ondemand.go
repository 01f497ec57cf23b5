package governor

import "repro/internal/sim"

// Ondemand reproduces the classic Linux ondemand governor (the 3.4-kernel
// variant the paper's Android 4.2.2 image ships): sample load every
// SamplingRate; if load exceeds UpThreshold jump straight to the maximum
// frequency; otherwise pick the lowest frequency that would keep load just
// under the threshold (proportional scaling with CPUFREQ_RELATION_L).
//
// This jump-to-max behaviour is the paper's issue (2): "When the user does
// care, e.g. inside of interaction lags, Ondemand overshoots the goal. It
// raises the frequency higher than necessary to satisfy the user."
type Ondemand struct {
	// SamplingRate is the load sampling period (kernel default ~50 ms on
	// this class of device).
	SamplingRate sim.Duration
	// UpThreshold is the busy percentage above which the governor jumps to
	// the maximum frequency. Android commonly tunes 90.
	UpThreshold int
	// SamplingDownFactor multiplies the sampling period while running at
	// the maximum frequency, making ondemand linger there (kernel default 1;
	// Android images often ship >1). We keep 1 for fidelity to the paper's
	// "usually alternating between the highest and the lowest frequency".
	SamplingDownFactor int

	cpu    CPU
	meter  loadMeter
	tickFn func() // tick bound once at Start, so rescheduling never allocates
}

// NewOndemand returns an ondemand governor with the tunables of the paper's
// msm8974-class kernel: a fast 20 ms sampling rate (10 ms HZ ticks × 2) and
// Android's up_threshold of 90.
func NewOndemand() *Ondemand {
	return &Ondemand{SamplingRate: 20 * sim.Millisecond, UpThreshold: 90, SamplingDownFactor: 1}
}

// Name implements Governor.
func (g *Ondemand) Name() string { return "ondemand" }

// Start implements Governor.
func (g *Ondemand) Start(cpu CPU) {
	g.cpu = cpu
	if g.SamplingRate <= 0 {
		g.SamplingRate = 50 * sim.Millisecond
	}
	if g.UpThreshold <= 0 || g.UpThreshold > 100 {
		g.UpThreshold = 90
	}
	if g.SamplingDownFactor < 1 {
		g.SamplingDownFactor = 1
	}
	g.meter.reset(cpu)
	g.tickFn = g.tick
	g.meter.arm(g.SamplingRate, g.tickFn, false)
}

// OnInput implements Governor; ondemand does not react to input directly.
func (g *Ondemand) OnInput(sim.Time) {}

func (g *Ondemand) tick() {
	load := g.meter.sample()
	tbl := g.cpu.Table()
	maxIdx := len(tbl) - 1
	next := g.SamplingRate

	if load >= g.UpThreshold {
		g.cpu.RequestOPPIndex(maxIdx)
		next = g.SamplingRate * sim.Duration(g.SamplingDownFactor)
	} else {
		// Proportional target: the lowest frequency that can serve the
		// observed load below the threshold.
		target := int(int64(load) * int64(tbl.Max()) / 100)
		g.cpu.RequestOPPIndex(tbl.IndexAtLeast(target))
	}
	// On an idle domain the next sample reads load 0, requests OPP 0 and
	// re-arms SamplingRate later: a no-op once the request and the clock sit
	// at OPP 0 and it was armed with SamplingRate.
	g.meter.arm(next, g.tickFn, next == g.SamplingRate && g.cpu.RequestedOPPIndex() == 0 && g.cpu.OPPIndex() == 0)
}
