package governor

import "repro/internal/sim"

// QoEAware is the prototype runtime governor the paper's future work
// proposes: "integrate our proposed user irritation metric into the ANDROID
// display stack in order to make energy efficient frequency governor
// decisions at runtime". It exploits the study's two findings directly:
//
//   - Outside interactions, background work should run at the race-to-idle
//     energy optimum (EfficientIdx, 0.96 GHz on this silicon) rather than
//     chasing load up and down the ladder.
//   - Inside interactions, the clock should go straight to a frequency that
//     meets the interaction deadline (BoostIdx, learned offline from the
//     oracle's per-lag choices) and return the moment the UI settles.
//
// It is deliberately simple: the point is to show the measurement
// methodology closing the loop into a policy, not to ship a kernel driver.
type QoEAware struct {
	// TimerRate is the settle-detection sample period.
	TimerRate sim.Duration
	// EfficientIdx is the OPP used whenever background work is running.
	EfficientIdx int
	// BoostIdx is the OPP used while servicing an interaction; learn it
	// from oracle per-lag choices via LearnBoost.
	BoostIdx int
	// SettleLoad is the load percentage below which an interaction is
	// considered serviced.
	SettleLoad int
	// MinBoost keeps a boost alive long enough for the UI work behind the
	// input to reach the core (gesture lift plus dispatch).
	MinBoost sim.Duration
	// MaxBoost bounds a single boost episode so a stuck heavy task cannot
	// pin the top frequency forever.
	MaxBoost sim.Duration

	cpu        CPU
	meter      loadMeter
	tickFn     func() // tick bound once at Start, so rescheduling never allocates
	boostStart sim.Time
	boostUntil sim.Time
	boosting   bool
}

// NewQoEAware returns the governor with EfficientIdx/BoostIdx for the
// Snapdragon table (0.96 GHz / 1.96 GHz) unless overridden.
func NewQoEAware() *QoEAware {
	return &QoEAware{
		TimerRate:    20 * sim.Millisecond,
		EfficientIdx: 5,
		BoostIdx:     12,
		SettleLoad:   20,
		MinBoost:     150 * sim.Millisecond,
		MaxBoost:     15 * sim.Second,
	}
}

// Name implements Governor.
func (g *QoEAware) Name() string { return "qoe-aware" }

// Start implements Governor.
func (g *QoEAware) Start(cpu CPU) {
	g.cpu = cpu
	if g.TimerRate <= 0 {
		g.TimerRate = 20 * sim.Millisecond
	}
	n := len(cpu.Table())
	if g.EfficientIdx < 0 || g.EfficientIdx >= n {
		g.EfficientIdx = n / 2
	}
	if g.BoostIdx < 0 || g.BoostIdx >= n {
		g.BoostIdx = n - 1
	}
	if g.SettleLoad <= 0 {
		g.SettleLoad = 20
	}
	if g.MinBoost <= 0 {
		g.MinBoost = 150 * sim.Millisecond
	}
	if g.MaxBoost <= 0 {
		g.MaxBoost = 15 * sim.Second
	}
	g.meter.reset(cpu)
	g.cpu.RequestOPPIndex(0)
	g.tickFn = g.tick
	g.meter.arm(g.TimerRate, g.tickFn, false)
}

// OnInput implements Governor: every input event opens a boost episode.
func (g *QoEAware) OnInput(at sim.Time) {
	if g.cpu == nil {
		return
	}
	g.boosting = true
	g.boostStart = at
	g.boostUntil = at.Add(g.MaxBoost)
	if g.cpu.RequestedOPPIndex() < g.BoostIdx {
		g.cpu.RequestOPPIndex(g.BoostIdx)
	}
}

func (g *QoEAware) tick() {
	load := g.meter.sample()
	now := g.cpu.Now()

	if g.boosting {
		// The interaction is serviced once the UI settles (load collapses
		// after the minimum boost window) or the safety bound expires.
		settled := load < g.SettleLoad && now.Sub(g.boostStart) >= g.MinBoost
		if settled || now > g.boostUntil {
			g.boosting = false
		}
	}
	switch {
	case g.boosting:
		g.cpu.RequestOPPIndex(g.BoostIdx)
	case load > 3:
		// Background work: race to idle at the efficient frequency.
		g.cpu.RequestOPPIndex(g.EfficientIdx)
	default:
		g.cpu.RequestOPPIndex(0)
	}
	g.meter.arm(g.TimerRate, g.tickFn, false)
}

// LearnBoost configures BoostIdx from oracle per-lag OPP choices: the
// smallest OPP that satisfies at least the given fraction of lags (e.g.
// 0.9). This is the offline profiling step the paper's runtime proposal
// implies.
func (g *QoEAware) LearnBoost(perLagOPP map[int]int, fraction float64) {
	if len(perLagOPP) == 0 {
		return
	}
	if fraction <= 0 || fraction > 1 {
		fraction = 0.9
	}
	counts := make(map[int]int)
	max := 0
	for _, opp := range perLagOPP {
		counts[opp]++
		if opp > max {
			max = opp
		}
	}
	need := int(fraction*float64(len(perLagOPP)) + 0.999)
	cum := 0
	for idx := 0; idx <= max; idx++ {
		cum += counts[idx]
		if cum >= need {
			g.BoostIdx = idx
			return
		}
	}
	g.BoostIdx = max
}
