package power

import (
	"fmt"

	"repro/internal/sim"
)

// Silicon holds the "true" physical constants of the simulated SoC. The
// calibration procedure is not allowed to read these directly — it measures
// them the way the paper does, by running a microbenchmark against a
// simulated power sensor. Tests compare the calibrated model against the
// ground truth to bound calibration error.
type Silicon struct {
	// CnJPerV2 is the effective switched capacitance: dynamic energy per
	// cycle is CnJPerV2 · V² nanojoules.
	CnJPerV2 float64
	// BaseActiveW is the extra power drawn whenever the core is not idle
	// (pipeline, L1/L2, busses kept out of retention). This term is what
	// produces the race-to-idle phenomenon the paper describes.
	BaseActiveW float64
	// PlatformIdleW is everything else (screen, radios, rails) — constant
	// across configurations and subtracted away by the calibration, exactly
	// as in the paper.
	PlatformIdleW float64
}

// DefaultSilicon returns constants tuned so the calibrated energy-per-cycle
// curve matches the shape of the paper's Fig. 12 (see DESIGN.md §2).
func DefaultSilicon() Silicon {
	return Silicon{CnJPerV2: 1.0, BaseActiveW: 0.0333, PlatformIdleW: 1.25}
}

// BusyPowerW returns the true total system power when the core runs flat out
// at the given OPP. This is what the simulated power sensor reports during
// the calibration microbenchmark.
func (s Silicon) BusyPowerW(o OPP) float64 {
	// float64(...) rounds the product so no architecture fuses it into the
	// add (see tools/fmacheck).
	return s.PlatformIdleW + s.BaseActiveW + float64(s.CnJPerV2*o.Volt*o.Volt*o.GHz())
}

// IdlePowerW returns the true system power with the core idle.
func (s Silicon) IdlePowerW() float64 { return s.PlatformIdleW }

// Model is the calibrated per-OPP dynamic power model used for all energy
// accounting in the study. DynW[i] is the dynamic core power at OPP i, i.e.
// measured busy power minus measured idle power.
type Model struct {
	Table Table
	DynW  []float64
}

// Calibrate reproduces the paper's measurement procedure: for each core
// frequency it "runs" a CPU-intensive microbenchmark for benchDur against
// the simulated power sensor, integrates measured energy, then subtracts the
// idle measurement. The sensor is sampled at a finite rate like a real
// power analyser, so the result carries (tiny, deterministic) quantisation
// differences from the ground truth rather than being copied from it.
func Calibrate(tbl Table, si Silicon, benchDur sim.Duration) (*Model, error) {
	if err := tbl.Validate(); err != nil {
		return nil, err
	}
	if benchDur <= 0 {
		benchDur = 2 * sim.Second
	}
	const samplePeriod = 1 * sim.Millisecond // 1 kHz power analyser
	m := &Model{Table: tbl, DynW: make([]float64, len(tbl))}

	measure := func(powerW float64) float64 {
		// Integrate energy over the benchmark window at the sampling rate,
		// then divide by wall time — the way a bench power logger is used.
		samples := int64(benchDur / samplePeriod)
		var energy float64
		for k := int64(0); k < samples; k++ {
			energy += float64(powerW * samplePeriod.Seconds())
		}
		return energy / benchDur.Seconds()
	}

	idleW := measure(si.IdlePowerW())
	for i, o := range tbl {
		busyW := measure(si.BusyPowerW(o))
		m.DynW[i] = busyW - idleW
	}
	return m, nil
}

// DynamicPowerW returns the calibrated dynamic power at OPP index i.
func (m *Model) DynamicPowerW(i int) float64 { return m.DynW[i] }

// EnergyPerCycleNJ returns dynamic energy per cycle at OPP i in nanojoules —
// the quantity whose minimum defines the race-to-idle optimal frequency.
func (m *Model) EnergyPerCycleNJ(i int) float64 {
	return m.DynW[i] / m.Table[i].GHz()
}

// MostEfficientOPP returns the OPP index with the lowest energy per cycle.
// The paper identifies 0.96 GHz as this point for the Snapdragon 8074 and
// uses it for all non-lag periods of the oracle.
func (m *Model) MostEfficientOPP() int {
	best, bestE := 0, m.EnergyPerCycleNJ(0)
	for i := 1; i < len(m.DynW); i++ {
		if e := m.EnergyPerCycleNJ(i); e < bestE {
			best, bestE = i, e
		}
	}
	return best
}

// Energy computes dynamic energy in joules for a run described by busy time
// per OPP.
func (m *Model) Energy(busyByOPP []sim.Duration) (float64, error) {
	if len(busyByOPP) != len(m.DynW) {
		return 0, fmt.Errorf("power: busy histogram has %d bins, model has %d", len(busyByOPP), len(m.DynW))
	}
	var e float64
	for i, d := range busyByOPP {
		e += float64(m.DynW[i] * d.Seconds())
	}
	return e, nil
}

// String summarises the model.
func (m *Model) String() string {
	return fmt.Sprintf("power.Model{%d OPPs, optimum %s}", len(m.DynW), m.Table[m.MostEfficientOPP()].Label())
}
