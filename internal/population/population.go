// Package population generates deterministic Monte Carlo device
// populations: per-unit perturbations of a base soc.Spec that model the
// spread a fleet of nominally identical phones actually exhibits. Three
// axes, each independently switchable:
//
//   - Silicon lottery: per-unit lognormal scatter on the power.Silicon
//     constants (switched capacitance, base active power), so two units at
//     the same OPP burn measurably different power.
//   - Thermal environment: per-unit ambient temperature (uniform across
//     the configured range, shared by all zones of a unit — it is the room,
//     not the die) and per-zone lognormal scatter on the case thermal
//     resistance (tight cases run hotter).
//   - Battery age: a fraction of units carries an aged battery whose peak
//     current can no longer feed the top OPPs; those units get a standing
//     per-cluster frequency cap applied through the existing arbiter under
//     the "battery" source.
//
// Determinism contract: Generate is a pure function of (model, base spec,
// base thermal config, seed, unit index). Unit i's perturbation never
// depends on any other unit, on generation order, or on worker count — the
// per-unit RNG is seeded by mixing (seed, i), so a sweep can generate unit
// 731 alone and get bit-for-bit the unit a full sweep would. The zero
// Model is the identity: it returns the base spec verbatim (same Name, no
// caps), which is what pins the size-1 population sweep bit-identical to a
// plain matrix sweep.
package population

import (
	"fmt"
	"math"

	"repro/internal/soc"
	"repro/internal/thermal"
)

// Model parameterises the population's spread. The zero value disables
// every axis (Enabled() == false): each unit is the base device exactly.
//
// Sigmas are relative lognormal scales: a value v scatters to
// v·exp(σ·z − σ²/2) with z standard normal, which keeps the perturbed
// value positive and its mean at v. Ambient is uniform in
// [AmbientMinC, AmbientMaxC] degrees Celsius.
type Model struct {
	// CnSigma scatters power.Silicon.CnJPerV2 (switched capacitance, the
	// dynamic-power constant) per unit — the silicon lottery's main axis.
	// Typical: 0.03–0.08.
	CnSigma float64 `json:"cn_sigma,omitempty"`
	// ActiveSigma scatters power.Silicon.BaseActiveW (frequency-independent
	// active floor) per unit.
	ActiveSigma float64 `json:"active_sigma,omitempty"`
	// AmbientMinC/AmbientMaxC bound the per-unit ambient temperature draw,
	// applied to every thermal zone of the unit. Both zero leaves the base
	// config's ambient untouched; they only take effect on thermal-enabled
	// sweeps.
	AmbientMinC float64 `json:"ambient_min_c,omitempty"`
	AmbientMaxC float64 `json:"ambient_max_c,omitempty"`
	// CaseSigma scatters each zone's case/skin thermal resistance
	// (ZoneParams.RThermCPerW) per unit — manufacturing and case-fit spread.
	CaseSigma float64 `json:"case_sigma,omitempty"`
	// BatteryAgedFrac is the fraction of units (0..1) whose battery is aged:
	// an aged unit's clusters are capped BatteryMaxSteps' worth of OPPs (a
	// per-unit uniform draw in 1..BatteryMaxSteps, same draw for every
	// cluster) below the top of their ladder, through the freq-cap arbiter.
	BatteryAgedFrac float64 `json:"battery_aged_frac,omitempty"`
	// BatteryMaxSteps bounds the aged-battery cap depth (0 with a non-zero
	// BatteryAgedFrac is treated as 1).
	BatteryMaxSteps int `json:"battery_max_steps,omitempty"`
}

// DefaultModel returns a plausible mid-spread fleet: ~5% silicon scatter,
// 15–35 °C ambient, 10% case spread, a quarter of units with batteries aged
// up to 3 OPP steps.
func DefaultModel() Model {
	return Model{
		CnSigma:         0.05,
		ActiveSigma:     0.05,
		AmbientMinC:     15,
		AmbientMaxC:     35,
		CaseSigma:       0.10,
		BatteryAgedFrac: 0.25,
		BatteryMaxSteps: 3,
	}
}

// Enabled reports whether any axis of the model is active. A disabled
// model makes Generate the identity transform.
func (m Model) Enabled() bool {
	return m.CnSigma != 0 || m.ActiveSigma != 0 ||
		m.AmbientMinC != 0 || m.AmbientMaxC != 0 ||
		m.CaseSigma != 0 || m.BatteryAgedFrac != 0
}

// Validate rejects models outside their meaningful ranges.
func (m Model) Validate() error {
	if m.CnSigma < 0 || m.CnSigma > 1 {
		return fmt.Errorf("population: cn_sigma %v outside [0, 1]", m.CnSigma)
	}
	if m.ActiveSigma < 0 || m.ActiveSigma > 1 {
		return fmt.Errorf("population: active_sigma %v outside [0, 1]", m.ActiveSigma)
	}
	if m.CaseSigma < 0 || m.CaseSigma > 1 {
		return fmt.Errorf("population: case_sigma %v outside [0, 1]", m.CaseSigma)
	}
	if m.AmbientMinC > m.AmbientMaxC {
		return fmt.Errorf("population: ambient range [%v, %v] inverted", m.AmbientMinC, m.AmbientMaxC)
	}
	if m.AmbientMinC != 0 || m.AmbientMaxC != 0 {
		if m.AmbientMinC < -40 || m.AmbientMaxC > 60 {
			return fmt.Errorf("population: ambient range [%v, %v] outside [-40, 60] °C", m.AmbientMinC, m.AmbientMaxC)
		}
	}
	if m.BatteryAgedFrac < 0 || m.BatteryAgedFrac > 1 {
		return fmt.Errorf("population: battery_aged_frac %v outside [0, 1]", m.BatteryAgedFrac)
	}
	if m.BatteryMaxSteps < 0 || m.BatteryMaxSteps > 16 {
		return fmt.Errorf("population: battery_max_steps %d outside [0, 16]", m.BatteryMaxSteps)
	}
	return nil
}

// Unit is one generated device of the population: the perturbed spec, the
// unit's thermal environment, and its battery-age frequency caps (entry per
// cluster, -1 = uncapped; nil when the model has no battery axis).
type Unit struct {
	Index    int
	Spec     soc.Spec
	Thermal  thermal.Config
	FreqCaps []int
}

// UnitSeed derives the replay master seed for unit i from the sweep seed.
// Unit 0 keeps the sweep seed itself — that is what makes the size-1
// population bit-identical to a plain RunMatrix at the same seed.
func UnitSeed(seed uint64, i int) uint64 {
	return seed ^ (uint64(i) * 0x9e3779b97f4a7c15)
}

// Generate produces unit i of the population: a pure function of its
// arguments (see the package comment for the determinism contract). The
// base spec and thermal config are never modified; perturbed copies are
// returned. Thermal perturbation only applies when the base config is
// thermal-enabled — a record-free sweep stays record-free.
func Generate(m Model, base soc.Spec, baseThermal thermal.Config, seed uint64, i int) Unit {
	u := Unit{Index: i, Spec: base, Thermal: baseThermal}
	if !m.Enabled() {
		return u
	}
	rng := newUnitRand(seed, i)

	// Every enabled-model unit gets its own spec name: warm-session keys and
	// report rows must both distinguish units.
	u.Spec.Name = fmt.Sprintf("%s#u%06d", base.Name, i)

	// Silicon lottery: copy the cluster slice (the elements' Table and
	// IdleStates stay shared — they are read-only), then scatter each
	// cluster's silicon constants. Draws happen unconditionally so the
	// stream of randoms — and hence every later axis — is independent of
	// which sigmas are switched on.
	u.Spec.Clusters = append([]soc.ClusterSpec(nil), base.Clusters...)
	for ci := range u.Spec.Clusters {
		sil := &u.Spec.Clusters[ci].Silicon
		cnF := lognormal(rng, m.CnSigma)
		actF := lognormal(rng, m.ActiveSigma)
		sil.CnJPerV2 *= cnF
		sil.BaseActiveW *= actF
	}

	// Thermal environment: one ambient draw per unit (the room), one case
	// draw per zone (the hardware). Draws are again unconditional.
	// float64(...) rounds the product so no architecture fuses it into the
	// add (see tools/fmacheck).
	ambient := m.AmbientMinC + float64(rng.float64()*(m.AmbientMaxC-m.AmbientMinC))
	caseFs := make([]float64, len(baseThermal.Zones))
	for zi := range caseFs {
		caseFs[zi] = lognormal(rng, m.CaseSigma)
	}
	if baseThermal.Enabled() {
		u.Thermal.Zones = append([]thermal.ZoneConfig(nil), baseThermal.Zones...)
		for zi := range u.Thermal.Zones {
			z := &u.Thermal.Zones[zi].Zone
			if m.AmbientMinC != 0 || m.AmbientMaxC != 0 {
				z.AmbientC = ambient
			}
			z.RThermCPerW *= caseFs[zi]
		}
	}

	// Battery age: the aged draw and the depth draw are unconditional too.
	aged := rng.float64() < m.BatteryAgedFrac
	maxSteps := m.BatteryMaxSteps
	if maxSteps < 1 {
		maxSteps = 1
	}
	steps := 1 + int(rng.float64()*float64(maxSteps))
	if steps > maxSteps {
		steps = maxSteps
	}
	if m.BatteryAgedFrac > 0 {
		u.FreqCaps = make([]int, len(base.Clusters))
		for ci := range u.FreqCaps {
			u.FreqCaps[ci] = -1
			if aged {
				capIdx := len(base.Clusters[ci].Table) - 1 - steps
				if capIdx < 0 {
					capIdx = 0
				}
				u.FreqCaps[ci] = capIdx
			}
		}
	}
	return u
}

// unitRand is a splitmix64 stream seeded by mixing (seed, i): cheap,
// allocation-light, and fully determined by the pair — the package's
// reproducibility contract rests on it, so it is private and frozen rather
// than delegated to a library whose stream might change.
type unitRand struct{ state uint64 }

func newUnitRand(seed uint64, i int) *unitRand {
	// One splitmix step over the index decorrelates neighbouring units
	// before the stream starts.
	r := &unitRand{state: seed ^ 0x43f6a8885a308d31}
	r.state += uint64(i) * 0x9e3779b97f4a7c15
	r.next()
	return r
}

func (r *unitRand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (r *unitRand) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// normFloat64 returns a standard normal draw (Box–Muller, one branch of
// the pair — simplicity over throughput; population generation is far off
// the hot path).
func (r *unitRand) normFloat64() float64 {
	u1 := r.float64()
	for u1 == 0 {
		u1 = r.float64()
	}
	u2 := r.float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// lognormal returns a mean-one lognormal factor with relative sigma s:
// exp(s·z − s²/2). s == 0 still consumes one normal draw so the random
// stream is layout-stable across model settings.
func lognormal(r *unitRand, s float64) float64 {
	z := r.normFloat64()
	if s == 0 {
		return 1
	}
	return math.Exp(float64(s*z) - float64(s*s/2))
}
