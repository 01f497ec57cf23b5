// Package oracle composes the paper's optimal frequency profile (§III-B):
// "we use the traces of all fixed frequency workload executions to compose
// an optimal frequency trace (oracle) that uses the least amount of energy
// possible without irritating the user ... For each interval in a workload
// where there is no lag, we pick the frequency and corresponding load that
// had the lowest overall energy consumption for the complete workload."
//
// Per lag the paper picks "the lowest frequency ... that is still below the
// chosen irritation threshold". On the calibrated model per-lag energy is
// U-shaped in frequency (race-to-idle), so the lowest satisfying frequency
// is not always the cheapest one. BuildCluster keeps the paper's stated
// goal instead of its wording: per lag it takes the cheapest candidate that
// meets the threshold, a set that contains the lowest satisfying one, so its
// energy is never above the lowest-frequency rule's. The same search spans
// cluster placements on heterogeneous SoCs.
package oracle

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ClusterFixedRun is the artefact bundle of one placement-pinned fixed
// execution on a heterogeneous SoC: the workload replayed with every task on
// cluster Cluster, pinned at OPPIndex of that cluster's own OPP ladder. The
// set of these runs spans the big.LITTLE oracle's search space — every
// (cluster placement, operating point) pair the silicon offers.
type ClusterFixedRun struct {
	// Cluster is the cluster index in the SoC spec's little-to-big order.
	Cluster int
	// OPPIndex indexes that cluster's own ladder (not the big ladder).
	OPPIndex int
	// Profile is the matched lag profile of the run.
	Profile *core.Profile
	// Busy is what pricing reads of the run's busy curve, used to charge
	// energy inside and outside lag windows. Sweeps fill it and leave
	// BusyCurve nil.
	Busy *BusySummary
	// BusyCurve is the run's whole cumulative busy-time curve. A run that
	// carries only the curve is summarised on entry to BuildCluster.
	BusyCurve *trace.BusyCurve
}

// BusySummary is all the oracle reads of one run's busy curve: its total,
// the window it covers and the busy time inside each of the run's own lags.
// A sweep run keeps it in place of the curve's 30 Hz sample grid.
type BusySummary struct {
	// Total is the run's busy time and Window the wall-clock span of its
	// curve.
	Total, Window sim.Duration
	// InLag[i] is the busy time between the Begin and End of the run
	// profile's Lags[i].
	InLag []sim.Duration
}

// SummarizeBusy reads the summary of a busy curve for the lags of p, with
// the curve's own Total, Window and Between arithmetic, so pricing from the
// summary is bit-identical to pricing from the curve.
func SummarizeBusy(c *trace.BusyCurve, p *core.Profile) *BusySummary {
	s := &BusySummary{Total: c.Total(), Window: c.Window(), InLag: make([]sim.Duration, len(p.Lags))}
	for i, lag := range p.Lags {
		s.InLag[i] = c.Between(lag.Begin, lag.End)
	}
	return s
}

// ClusterChoice is one point of the big.LITTLE oracle's search space: which
// cluster serves the work, and at which OPP of that cluster's ladder.
type ClusterChoice struct {
	Cluster  int `json:"cluster"`
	OPPIndex int `json:"opp_index"`
}

// ClusterOracle is the composed optimal profile: for each lag the cheapest
// (cluster, OPP) pair that still meets the lag's irritation threshold, and
// outside lags the (cluster, OPP) with the lowest whole-workload energy. It
// is energy-aware: candidates are compared by the dynamic energy they charge
// under the calibrated power.SoCModel, so a little-cluster point can win a
// lag even when a big-cluster point is slower-clocked but hungrier, and
// vice versa. On a single-cluster spec the candidates are the paper's fixed
// frequencies.
type ClusterOracle struct {
	// Thresholds are the per-lag irritation deadlines used (the paper's
	// 110%-of-fastest rule unless overridden).
	Thresholds core.Thresholds
	// PerLag maps each interaction index to its chosen (cluster, OPP).
	PerLag map[int]ClusterChoice
	// Base is the placement used outside lags: the candidate with the
	// lowest whole-workload dynamic energy.
	Base ClusterChoice
	// EnergyJ is the oracle's dynamic energy for the workload, in joules.
	EnergyJ float64
	// Profile is the oracle's lag profile (each lag at its chosen
	// candidate). By construction its irritation under Thresholds is zero.
	Profile *core.Profile
}

// BuildCluster composes the oracle from one placement-pinned run per
// (cluster, OPP) candidate. model supplies per-cluster dynamic power;
// factor is the threshold slack over the fastest candidate (the paper uses
// 1.10). Passing explicit thresholds overrides the relative rule — the
// HCI-class ablation does. Runs carrying a whole busy curve instead of a
// summary are summarised first; the runs themselves are not modified.
func BuildCluster(runs []ClusterFixedRun, model *power.SoCModel, factor float64, override *core.Thresholds) (*ClusterOracle, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("oracle: no cluster fixed runs")
	}
	byChoice := make(map[ClusterChoice]ClusterFixedRun, len(runs))
	var fastest ClusterFixedRun
	fastestKHz := -1
	for _, r := range runs {
		if r.Profile == nil || (r.Busy == nil && r.BusyCurve == nil) {
			return nil, fmt.Errorf("oracle: cluster %d OPP %d run incomplete", r.Cluster, r.OPPIndex)
		}
		if r.Busy == nil {
			r.Busy = SummarizeBusy(r.BusyCurve, r.Profile)
		}
		if len(r.Busy.InLag) != len(r.Profile.Lags) {
			return nil, fmt.Errorf("oracle: cluster %d OPP %d busy summary covers %d of %d lags",
				r.Cluster, r.OPPIndex, len(r.Busy.InLag), len(r.Profile.Lags))
		}
		if r.Cluster < 0 || r.Cluster >= len(model.Models) {
			return nil, fmt.Errorf("oracle: run cluster %d outside %d-cluster model", r.Cluster, len(model.Models))
		}
		tbl := model.Cluster(r.Cluster).Table
		if r.OPPIndex < 0 || r.OPPIndex >= len(tbl) {
			return nil, fmt.Errorf("oracle: OPP %d outside cluster %s ladder", r.OPPIndex, model.Names[r.Cluster])
		}
		ch := ClusterChoice{Cluster: r.Cluster, OPPIndex: r.OPPIndex}
		if _, dup := byChoice[ch]; dup {
			return nil, fmt.Errorf("oracle: duplicate candidate cluster %d OPP %d", r.Cluster, r.OPPIndex)
		}
		byChoice[ch] = r
		// The fastest candidate (highest clock; ties toward the bigger
		// cluster) defines the relative thresholds, like the fastest fixed
		// frequency does on a single ladder.
		if khz := tbl[r.OPPIndex].KHz; khz > fastestKHz ||
			(khz == fastestKHz && r.Cluster > fastest.Cluster) {
			fastest, fastestKHz = r, khz
		}
	}

	var th core.Thresholds
	if override != nil {
		th = *override
	} else {
		if factor <= 0 {
			factor = 1.10
		}
		th = core.RelativeThresholds(fastest.Profile, factor)
	}

	dynW := func(ch ClusterChoice) float64 {
		return model.Cluster(ch.Cluster).DynamicPowerW(ch.OPPIndex)
	}
	// windowEnergy prices one wall-clock window of a candidate run: dynamic
	// power for the busy core-time plus — when the model carries C-state
	// ladders — the cluster's deepest-state (parked) leakage for the
	// remainder of the window. Candidates keep only busy-time totals, so a
	// constant idle rate is the resolution pricing has here; the park
	// rate is the faithful one because the oracle's idle windows are the
	// workload's long think-time gaps, which measured runs sink to the
	// bottom of the ladder almost exclusively. This is what makes
	// race-to-idle pay: a fast candidate finishes its burst early and then
	// leaks for the rest of the window, where the pre-idle oracle priced
	// that remainder at zero.
	windowEnergy := func(ch ClusterChoice, busy, wall sim.Duration) float64 {
		// float64(...) rounds each product so no architecture fuses it into
		// the add (see tools/fmacheck).
		e := float64(dynW(ch) * busy.Seconds())
		if wall > busy {
			e += float64(model.IdleParkW(ch.Cluster) * (wall - busy).Seconds())
		}
		return e
	}

	// Base: lowest whole-workload energy among the candidates (dynamic plus,
	// with idle ladders, leakage over the run window).
	var base ClusterChoice
	bestE := -1.0
	for ch, r := range byChoice {
		e := windowEnergy(ch, r.Busy.Total, r.Busy.Window)
		if bestE < 0 || e < bestE || (e == bestE && less(ch, base)) {
			base, bestE = ch, e
		}
	}

	o := &ClusterOracle{
		Thresholds: th,
		PerLag:     make(map[int]ClusterChoice),
		Base:       base,
		Profile:    &core.Profile{Workload: fastest.Profile.Workload, Config: "oracle"},
	}

	// Per lag: the candidate charging the least dynamic energy among those
	// meeting the threshold. Map iteration order is randomised, so ties
	// break deterministically via less().
	// Index every candidate's lags (lag index to position in its profile)
	// once up front: rebuilding these maps inside the per-lag scan is
	// quadratic in (lags x candidates).
	lagsByChoice := make(map[ClusterChoice]map[int]int, len(byChoice))
	for ch, r := range byChoice {
		pos := make(map[int]int, len(r.Profile.Lags))
		for i, lag := range r.Profile.Lags {
			pos[lag.Index] = i
		}
		lagsByChoice[ch] = pos
	}
	var lagEnergy float64
	for _, lag := range fastest.Profile.Lags {
		if lag.Spurious {
			o.Profile.Lags = append(o.Profile.Lags, lag)
			continue
		}
		limit := th.For(lag.Index)
		var chosen ClusterChoice
		var chosenLag core.Lag
		chosenE := -1.0
		for ch, r := range byChoice {
			i, ok := lagsByChoice[ch][lag.Index]
			if !ok {
				continue
			}
			cand := r.Profile.Lags[i]
			if cand.Duration() > limit {
				continue
			}
			e := windowEnergy(ch, r.Busy.InLag[i], cand.Duration())
			if chosenE < 0 || e < chosenE || (e == chosenE && less(ch, chosen)) {
				chosen, chosenLag, chosenE = ch, cand, e
			}
		}
		if chosenE < 0 {
			// The fastest candidate defines the threshold, so it always
			// fits; guard anyway.
			chosen = ClusterChoice{Cluster: fastest.Cluster, OPPIndex: fastest.OPPIndex}
			i := lagsByChoice[chosen][lag.Index]
			chosenLag = fastest.Profile.Lags[i]
			chosenE = windowEnergy(chosen, fastest.Busy.InLag[i], chosenLag.Duration())
		}
		o.PerLag[lag.Index] = chosen
		o.Profile.Lags = append(o.Profile.Lags, core.Lag{
			Index: lag.Index, Label: lag.Label,
			Begin: lag.Begin, End: lag.Begin.Add(chosenLag.Duration()),
		})
		lagEnergy += chosenE
	}

	// Energy outside lags: the base run's busy time minus its own lag
	// windows, at the base candidate's power — plus, with idle ladders,
	// leakage over the out-of-lag wall time the busy work does not cover.
	baseRun := byChoice[base]
	outside := baseRun.Busy.Total
	outsideWall := baseRun.Busy.Window
	for i, lag := range baseRun.Profile.Lags {
		if lag.Spurious {
			continue
		}
		outside -= baseRun.Busy.InLag[i]
		outsideWall -= lag.Duration()
	}
	if outside < 0 {
		outside = 0
	}
	if outsideWall < 0 {
		outsideWall = 0
	}
	o.EnergyJ = lagEnergy + windowEnergy(base, outside, outsideWall)
	return o, nil
}

// less orders candidates for deterministic tie-breaks: littler cluster
// first, then lower OPP.
func less(a, b ClusterChoice) bool {
	if a.Cluster != b.Cluster {
		return a.Cluster < b.Cluster
	}
	return a.OPPIndex < b.OPPIndex
}

// Irritation confirms the oracle's defining property (always 0 under its own
// thresholds).
func (o *ClusterOracle) Irritation() sim.Duration {
	return core.Irritation(o.Profile, o.Thresholds)
}

// ClusterShares returns the fraction of non-spurious lags served on each of
// nClusters clusters — the "how often is the little cluster enough" number
// the big.LITTLE study reports. The slice sums to 1 when any lags exist.
func (o *ClusterOracle) ClusterShares(nClusters int) []float64 {
	shares := make([]float64, nClusters)
	total := 0
	for _, ch := range o.PerLag {
		if ch.Cluster >= 0 && ch.Cluster < nClusters {
			shares[ch.Cluster]++
			total++
		}
	}
	if total > 0 {
		for i := range shares {
			shares[i] /= float64(total)
		}
	}
	return shares
}
