// Package governor implements the CPU frequency governors characterised by
// the paper: Ondemand and Conservative (standard Linux) and Interactive (the
// default on most Android devices of the era), plus fixed-frequency
// "userspace" configurations used for the per-frequency sweeps.
//
// All three load-based governors follow the paper's description: "They ramp
// up the frequency as soon as the load raises above a fixed high-threshold
// and lower it again as soon as the load falls below a low-threshold.
// Conservative changes the load more smoothly than Interactive and Ondemand
// and stays longer in intermediate steps. Interactive has an additional
// feature where it reacts directly to incoming user input events and
// immediately ramps up the frequency while ignoring the load in those
// cases."
//
// Quiet samples: on an idle domain most load samples read 0% and change
// nothing. At the end of each sample a load-based governor checks whether
// the next one, run on an idle domain, would change no state and re-arm
// itself with the same delay — the exactness rule of sim.Engine.Quiet — and
// if so arms it through CPU.AfterIdle, so the domain passes it without
// running it while it stays idle. Each governor's predicate must be
// sufficient, never necessary: a sample woken early and run on an idle
// domain is a no-op anyway. Skipping the sample also skips the domain's
// settle, which on an idle cluster moves no task: its busy grid is rebuilt
// identically later and work is settled before it runs.
//
// Units: frequencies are kHz (tunables like Interactive.HispeedKHz), loads
// are integer percent (0..100), and all times are virtual microseconds
// (sim.Time / sim.Duration) — tunables named after kernel ones keep the
// kernel's millisecond-scale magnitudes, e.g. 20 ms sampling. Concurrency:
// a governor instance drives exactly one cluster and runs entirely on that
// cluster's engine goroutine; nothing here is safe for concurrent use, and
// sweeps must build one fresh governor per cluster per replay (Config.
// Governors in the experiment package does exactly that).
package governor

import (
	"repro/internal/power"
	"repro/internal/sim"
)

// CPU is the view a governor has of the frequency domain it manages — one
// cluster of the SoC, with one governor instance attached per cluster. It is
// deliberately narrow: current OPP, the OPP table, cumulative busy time for
// load computation, the number of cores sharing the domain, and a timer
// facility.
//
// A governor proposes, it does not set: RequestOPPIndex records the
// governor's wish, the domain's arbiter clamps it against active frequency
// caps (thermal throttling), and OPPIndex reports what was actually applied.
// Governors must therefore tolerate OPPIndex staying below their request.
type CPU interface {
	Now() sim.Time
	After(d sim.Duration, fn func())
	// AfterIdle schedules fn like After, but while the domain is idle it
	// passes fn without running it, once every d, until work is queued on
	// it or its request changes (see sim.Engine.Quiet). Arm a sample this
	// way only when that sample, run on an idle domain, would change no
	// state and re-arm itself d later.
	AfterIdle(d sim.Duration, fn func())
	// RequestOPPIndex proposes an operating point. The domain applies it
	// clamped to any active frequency cap and remembers the request so it is
	// restored when caps lift.
	RequestOPPIndex(i int)
	// OPPIndex returns the applied operating point (post-arbitration).
	OPPIndex() int
	// RequestedOPPIndex returns the pending request, which may sit above the
	// applied index while a cap is active. Boost-style paths compare against
	// this rather than OPPIndex so a boost never lowers a higher pending
	// request that a cap is holding back.
	RequestedOPPIndex() int
	Table() power.Table
	// CumulativeBusy is total core-busy time of the domain: a domain with k
	// busy cores accumulates k seconds of busy per wall second.
	CumulativeBusy() sim.Duration
	// PerCoreBusy copies each core's cumulative busy time into dst
	// (reallocated if too small) and returns it, one entry per core. This is
	// the per-CPU idle-time accounting real cpufreq governors sample; the
	// load meter derives per-core load from its deltas and drives requests
	// from the busiest core, not the domain average.
	PerCoreBusy(dst []sim.Duration) []sim.Duration
	// NumCores is the number of cores sharing the domain's clock.
	NumCores() int
}

// Governor is a DVFS policy driving one CPU.
type Governor interface {
	// Name returns the sysfs-style governor name, e.g. "ondemand".
	Name() string
	// Start attaches the governor and begins its sampling, if any.
	Start(cpu CPU)
	// OnInput notifies the governor of a user input event. Only the
	// Interactive governor reacts; others ignore it.
	OnInput(at sim.Time)
}

// loadMeter computes CPU load over governor sampling windows the way
// cpufreq governors do: per-core busy time delta over wall time delta, in
// percent, with the domain's load taken as the maximum over its cores. Real
// interactive/ondemand policies evaluate every CPU of the policy and scale
// for the busiest one; averaging instead keeps a 4-core cluster at low
// frequency while one core runs a serial encode flat out (25% "load" for a
// saturated core), which is exactly the artifact the heterogeneous sweeps
// would otherwise measure. On a single-core domain max-of-CPUs and the
// domain average coincide, so the paper's Dragonboard traces are unchanged.
//
// Idle-state wake stalls never register as demand: while a cluster pays a
// C-state's exit latency, queued work is not running and no busy time
// accrues, so a sample window spanning the stall sees only the cycles that
// actually executed — a governor cannot be tricked into ramping by wake
// latency alone (pinned by TestLoadMeterIgnoresWakeStalls in soc).
type loadMeter struct {
	cpu CPU
	// window is the delay the next sample was armed with: the wall time
	// since the previous sample, because every sample runs where it was
	// armed or is passed quietly on an idle domain, where it would have
	// re-armed with the same delay and read no busy time.
	window sim.Duration
	// lastPerCore and scratch are swapped each sample so the steady state
	// never allocates.
	lastPerCore []sim.Duration
	scratch     []sim.Duration
}

func (m *loadMeter) reset(cpu CPU) {
	m.cpu = cpu
	m.lastPerCore = cpu.PerCoreBusy(m.lastPerCore)
}

// arm schedules the governor's next sample fn d from now and makes d that
// sample's window. idleNoop reports that the sample, run on an idle domain,
// would change no state and re-arm itself d later; the domain then passes
// it while it stays idle (CPU.AfterIdle).
func (m *loadMeter) arm(d sim.Duration, fn func(), idleNoop bool) {
	m.window = d
	if idleNoop {
		m.cpu.AfterIdle(d, fn)
	} else {
		m.cpu.After(d, fn)
	}
}

// sample returns load in percent (0..100) over the window since the
// previous sample: the maximum per-core load across the domain. A
// busy-counter reset (cluster hotplug or task migration landing mid-window)
// can make a core's delta negative; that core clamps to 0 rather than
// contributing a nonsense negative percent.
func (m *loadMeter) sample() int {
	dWall := m.window
	cur := m.cpu.PerCoreBusy(m.scratch)
	max := 0
	if dWall > 0 {
		for i, busy := range cur {
			if i >= len(m.lastPerCore) {
				break
			}
			dBusy := busy - m.lastPerCore[i]
			if dBusy <= 0 {
				continue
			}
			load := int(100 * int64(dBusy) / int64(dWall))
			if load > 100 {
				load = 100
			}
			if load > max {
				max = load
			}
		}
	}
	m.scratch, m.lastPerCore = m.lastPerCore, cur
	return max
}

// Fixed pins the CPU at one OPP for the whole run — the paper's
// fixed-frequency configurations ("we replay each of them for each available
// core frequency; during those executions the frequency is fixed for the
// whole runtime").
type Fixed struct {
	// Index is the pinned OPP index on the attached CPU's ladder.
	Index int
	name  string
}

// NewFixed returns a fixed-frequency governor for OPP index i.
func NewFixed(tbl power.Table, i int) *Fixed {
	if i < 0 {
		i = 0
	}
	if i >= len(tbl) {
		i = len(tbl) - 1
	}
	return &Fixed{Index: i, name: tbl[i].Label()}
}

// Name returns the OPP label, e.g. "0.96 GHz".
func (f *Fixed) Name() string { return f.name }

// Start pins the requested frequency (the applied one may sit lower while a
// cap is active).
func (f *Fixed) Start(cpu CPU) { cpu.RequestOPPIndex(f.Index) }

// OnInput is a no-op for fixed frequencies.
func (f *Fixed) OnInput(sim.Time) {}

// Performance returns a governor pinned at the highest OPP.
func Performance(tbl power.Table) *Fixed {
	g := NewFixed(tbl, len(tbl)-1)
	g.name = "performance"
	return g
}

// Powersave returns a governor pinned at the lowest OPP.
func Powersave(tbl power.Table) *Fixed {
	g := NewFixed(tbl, 0)
	g.name = "powersave"
	return g
}
