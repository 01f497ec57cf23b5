// Package thermal models the temperature side of sustained interactive load:
// a first-order RC thermal model per CPU cluster (heat input from the
// calibrated power model, exponential relaxation toward ambient, a coupling
// term from sibling clusters sharing the package) and a step-hysteresis
// throttler that walks a frequency cap down the OPP ladder above a trip
// temperature and back up once the zone cools below a clear temperature.
//
// On real phones skin temperature, not energy, bounds sustained performance:
// commercial SoCs spend long stretches throttled, which inverts governor
// rankings measured on short workloads (Bhat et al., arXiv:1904.09814). The
// package is deliberately free of soc/device dependencies: a Zone consumes
// watts and produces degrees; the device layer owns the wiring from cluster
// busy-time to heat input and from throttler verdicts to frequency caps.
//
// Units: temperatures are °C, heat inputs watts, time constants seconds and
// tick periods virtual time (sim.Duration). Concurrency: Zone and Throttler
// are stateful and belong to one device's engine goroutine; Config,
// ZoneConfig and the parameter structs are plain values, safe to copy into
// any number of concurrently replaying devices.
package thermal

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// ZoneParams are the RC constants of one thermal zone (one CPU cluster).
type ZoneParams struct {
	// AmbientC is the temperature the zone relaxes toward with no heat
	// input (default 25).
	AmbientC float64
	// RThermCPerW is the thermal resistance: steady-state rise above
	// ambient per watt of sustained heat input (default 12).
	RThermCPerW float64
	// TauS is the RC time constant in seconds — how quickly the zone moves
	// toward its steady state (default 20, skin-temperature class).
	TauS float64
	// CouplingFrac scales how much of the sibling zones' mean rise above
	// ambient leaks into this zone through the shared package (default
	// 0.25). A negative value means explicitly no coupling — zero is the
	// "use the default" sentinel, so a thermally isolated zone is expressed
	// with CouplingFrac: -1.
	CouplingFrac float64
	// IdleW is the heat floor: leakage power dissipated even when the
	// cluster is fully idle (default 0).
	IdleW float64
	// InitC is the boot temperature; 0 means start at ambient.
	InitC float64
}

// withDefaults fills zero fields with the documented defaults.
func (p ZoneParams) withDefaults() ZoneParams {
	if p.AmbientC == 0 {
		p.AmbientC = 25
	}
	if p.RThermCPerW == 0 {
		p.RThermCPerW = 12
	}
	if p.TauS == 0 {
		p.TauS = 20
	}
	if p.CouplingFrac == 0 {
		p.CouplingFrac = 0.25
	} else if p.CouplingFrac < 0 {
		p.CouplingFrac = 0
	}
	if p.InitC == 0 {
		p.InitC = p.AmbientC
	}
	return p
}

// Zone is the live RC state of one thermal zone.
type Zone struct {
	p     ZoneParams
	tempC float64
	// alpha is the relaxation factor 1 - exp(-alphaDt/TauS) for the last
	// step length. Devices step at a fixed tick, so it is computed once
	// per zone rather than once per tick.
	alphaDt sim.Duration
	alpha   float64
}

// NewZone returns a zone at its initial temperature.
func NewZone(p ZoneParams) *Zone {
	p = p.withDefaults()
	return &Zone{p: p, tempC: p.InitC}
}

// Params returns the zone's (default-filled) constants.
func (z *Zone) Params() ZoneParams { return z.p }

// TempC returns the current zone temperature.
func (z *Zone) TempC() float64 { return z.tempC }

// Reset returns the zone to the state NewZone leaves it in, so a re-sealed
// device reuses its zones across forked replays.
func (z *Zone) Reset() { z.tempC, z.alphaDt, z.alpha = z.p.InitC, 0, 0 }

// RiseC returns the current rise above ambient (never negative), the
// quantity cross-cluster coupling is computed from.
func (z *Zone) RiseC() float64 {
	if r := z.tempC - z.p.AmbientC; r > 0 {
		return r
	}
	return 0
}

// Step advances the RC state by dt with heat input powerW (plus the zone's
// IdleW floor) and couplingC extra steady-state rise contributed by sibling
// zones. It uses the exact discrete solution of the first-order RC equation,
// so the result is independent of how a given interval is subdivided when
// the inputs are constant. It returns the new temperature.
func (z *Zone) Step(dt sim.Duration, powerW, couplingC float64) float64 {
	if dt <= 0 {
		return z.tempC
	}
	// float64(...) rounds each product so no architecture fuses it into
	// the add (see tools/fmacheck).
	steady := z.p.AmbientC + float64((powerW+z.p.IdleW)*z.p.RThermCPerW) + couplingC
	if dt != z.alphaDt {
		z.alphaDt, z.alpha = dt, 1-math.Exp(-dt.Seconds()/z.p.TauS)
	}
	z.tempC += float64((steady - z.tempC) * z.alpha)
	return z.tempC
}

// ThrottleParams tune the step-hysteresis throttler of one zone.
type ThrottleParams struct {
	// TripC is the temperature at or above which the throttler walks the
	// frequency cap one OPP down per evaluation. Zero disables throttling
	// (the zone still records temperatures).
	TripC float64
	// ClearC is the temperature at or below which the cap walks one OPP
	// back up. It must sit below TripC; the band between the two is the
	// hysteresis dead zone where the cap holds. Zero defaults to TripC - 3.
	ClearC float64
	// MinCapIdx is the lowest OPP index the throttler may cap to — the
	// floor that keeps a throttled device interactive at all (default 0).
	// The index refers to the governed cluster's own ladder and is clamped
	// to it; on heterogeneous SoCs the same index therefore leaves fewer
	// throttle steps on shorter (little) ladders than on longer (big) ones.
	MinCapIdx int
}

// withDefaults fills derived fields.
func (p ThrottleParams) withDefaults() ThrottleParams {
	if p.TripC > 0 && p.ClearC == 0 {
		p.ClearC = p.TripC - 3
	}
	return p
}

// Enabled reports whether a trip temperature is configured.
func (p ThrottleParams) Enabled() bool { return p.TripC > 0 }

// Throttler walks a frequency cap down and up one OPP step at a time with
// hysteresis: below ClearC it releases, at or above TripC it tightens, and
// in between it holds — so the cap cannot flap when the temperature hovers
// at the trip point.
type Throttler struct {
	p      ThrottleParams
	maxIdx int
	capIdx int
}

// NewThrottler returns a throttler for a ladder whose top OPP index is
// maxIdx, starting uncapped.
func NewThrottler(p ThrottleParams, maxIdx int) *Throttler {
	p = p.withDefaults()
	if p.MinCapIdx < 0 {
		p.MinCapIdx = 0
	}
	if p.MinCapIdx > maxIdx {
		p.MinCapIdx = maxIdx
	}
	return &Throttler{p: p, maxIdx: maxIdx, capIdx: maxIdx}
}

// Enabled reports whether the throttler has a trip temperature configured.
func (t *Throttler) Enabled() bool { return t.p.Enabled() }

// CapIndex returns the current cap (maxIdx when not throttling).
func (t *Throttler) CapIndex() int { return t.capIdx }

// Reset returns the throttler to its boot state: uncapped.
func (t *Throttler) Reset() { t.capIdx = t.maxIdx }

// Throttled reports whether the cap currently limits the ladder.
func (t *Throttler) Throttled() bool { return t.capIdx < t.maxIdx }

// Update evaluates one throttling decision for the given temperature and
// returns the cap plus whether it changed. Each evaluation moves the cap by
// at most one OPP step, the kernel step_wise thermal-governor behaviour.
func (t *Throttler) Update(tempC float64) (capIdx int, changed bool) {
	if !t.p.Enabled() {
		return t.capIdx, false
	}
	switch {
	case tempC >= t.p.TripC && t.capIdx > t.p.MinCapIdx:
		t.capIdx--
		return t.capIdx, true
	case tempC <= t.p.ClearC && t.capIdx < t.maxIdx:
		t.capIdx++
		return t.capIdx, true
	}
	return t.capIdx, false
}

// ZoneConfig pairs the RC constants and throttler tuning of one cluster.
type ZoneConfig struct {
	// Zone holds the RC constants (°C, °C/W, seconds).
	Zone ZoneParams
	// Throttle holds the trip/clear temperatures (°C) and cap floor; a
	// zero value traces temperatures without ever capping.
	Throttle ThrottleParams
}

// Config describes the thermal subsystem of a whole SoC: one zone per
// cluster plus the evaluation period. The zero value disables thermal
// simulation entirely (no zones, no tick, traces stay empty) — existing
// non-thermal runs are bit-for-bit unchanged.
type Config struct {
	// TickPeriod is the zone-step and throttle-evaluation period
	// (default 100ms, the kernel's polling-delay class).
	TickPeriod sim.Duration
	// Zones holds one entry per cluster, little-to-big. Empty disables the
	// thermal subsystem.
	Zones []ZoneConfig
}

// Enabled reports whether any zones are configured.
func (c Config) Enabled() bool { return len(c.Zones) > 0 }

// Tick returns the evaluation period, defaulted.
func (c Config) Tick() sim.Duration {
	if c.TickPeriod <= 0 {
		return 100 * sim.Millisecond
	}
	return c.TickPeriod
}

// Validate checks the config against a cluster count.
func (c Config) Validate(nClusters int) error {
	if !c.Enabled() {
		return nil
	}
	if len(c.Zones) != nClusters {
		return fmt.Errorf("thermal: %d zones configured for %d clusters", len(c.Zones), nClusters)
	}
	for i, zc := range c.Zones {
		zp := zc.Zone.withDefaults()
		tp := zc.Throttle.withDefaults()
		if tp.Enabled() && tp.ClearC >= tp.TripC {
			return fmt.Errorf("thermal: zone %d clear %.1f°C must sit below trip %.1f°C", i, tp.ClearC, tp.TripC)
		}
		if zp.TauS < 0 || zp.RThermCPerW < 0 {
			return fmt.Errorf("thermal: zone %d has negative RC constants", i)
		}
	}
	return nil
}

// PhoneConfig returns a phone-class thermal configuration for n clusters
// with the given trip temperature (clear 2°C below, cap floor at minCapIdx):
// skin-temperature RC constants scaled so sustained interactive load on the
// big end crosses trip within a couple of workload repetitions. TripC <= 0
// yields record-only zones (temperatures traced, no throttling) — the
// unthrottled arm of a thermal comparison.
func PhoneConfig(n int, tripC float64, minCapIdx int) Config {
	cfg := Config{}
	for i := 0; i < n; i++ {
		zc := ZoneConfig{Zone: ZoneParams{
			AmbientC:     25,
			RThermCPerW:  16,
			TauS:         15,
			CouplingFrac: 0.25,
			IdleW:        0.05,
		}}
		if tripC > 0 {
			zc.Throttle = ThrottleParams{TripC: tripC, ClearC: tripC - 2, MinCapIdx: minCapIdx}
		}
		cfg.Zones = append(cfg.Zones, zc)
	}
	return cfg
}
