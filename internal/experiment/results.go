package experiment

import (
	"encoding/json"
	"io"

	"repro/internal/stats"
)

// Summary is the serialisable digest of one dataset's matrix: everything
// the figures need, without the raw traces. It lets a study run once and
// be re-rendered or diffed later (qoebench -json).
type Summary struct {
	Workload    string `json:"workload"`    // workload name
	Description string `json:"description"` // the Table I text
	Reps        int    `json:"reps"`        // repetitions per configuration
	// OracleJ is the mean oracle energy in joules; BaseOPP its label.
	OracleJ float64 `json:"oracle_energy_j"`
	BaseOPP string  `json:"oracle_base_opp"`
	// Configs aggregates each configuration; InputCounts are the Fig. 10
	// classes; LagStats are per-config lag-duration boxes in milliseconds.
	Configs     []ConfigSummary    `json:"configs"`
	InputCounts map[string]int     `json:"input_counts"`
	LagStats    map[string]BoxJSON `json:"lag_stats_ms"`
}

// ConfigSummary is one configuration's aggregate.
type ConfigSummary struct {
	Name  string `json:"name"`  // config name (OPP label or governor)
	Fixed bool   `json:"fixed"` // true for fixed-frequency configs
	// MeanEnergyJ and EnergyCI95 are dynamic energy in joules (mean and
	// 95% CI half-width); NormEnergy is energy relative to the oracle.
	MeanEnergyJ float64 `json:"mean_energy_j"`
	EnergyCI95  float64 `json:"energy_ci95_j"`
	NormEnergy  float64 `json:"energy_vs_oracle"`
	// IrritationS is mean user irritation in seconds.
	IrritationS float64 `json:"irritation_s"`
	// LagCount and SpuriousLags count the first rep's actual and spurious
	// lags.
	LagCount     int `json:"lag_count"`
	SpuriousLags int `json:"spurious_lags"`
}

// BoxJSON mirrors stats.Box for serialisation; values are milliseconds.
type BoxJSON struct {
	N      int     `json:"n"`      // sample count
	Q1     float64 `json:"q1"`     // first quartile (ms)
	Median float64 `json:"median"` // median (ms)
	Q3     float64 `json:"q3"`     // third quartile (ms)
	Max    float64 `json:"max"`    // maximum (ms)
	Mean   float64 `json:"mean"`   // mean (ms)
	Fliers int     `json:"fliers"` // outliers beyond the whiskers
}

// Summarise digests a matrix result.
func (res *MatrixResult) Summarise() *Summary {
	s := &Summary{
		Workload:    res.Workload.Name,
		Description: res.Workload.Description,
		OracleJ:     res.OracleEnergyJ,
		InputCounts: map[string]int{},
		LagStats:    map[string]BoxJSON{},
	}
	if len(res.Oracles) > 0 {
		base := res.Oracles[0].Base
		s.BaseOPP = res.Model.Cluster(base.Cluster).Table[base.OPPIndex].Label()
	}
	taps, swipes, actual, spurious := res.InputClassification()
	s.InputCounts["taps"] = taps
	s.InputCounts["swipes"] = swipes
	s.InputCounts["actual"] = actual
	s.InputCounts["spurious"] = spurious

	for _, cfg := range res.Configs {
		runs := res.Runs[cfg.Name]
		if len(runs) == 0 {
			continue
		}
		if s.Reps == 0 {
			s.Reps = len(runs)
		}
		energies := make([]float64, len(runs))
		for i, r := range runs {
			energies[i] = r.EnergyJ
		}
		_, ci := stats.MeanCI95(energies)
		cs := ConfigSummary{
			Name:         cfg.Name,
			Fixed:        cfg.OPPIndex >= 0,
			MeanEnergyJ:  res.MeanEnergyJ(cfg.Name),
			EnergyCI95:   ci,
			NormEnergy:   res.NormEnergy(cfg.Name),
			IrritationS:  res.MeanIrritation(cfg.Name).Seconds(),
			LagCount:     len(runs[0].Profile.Actual()),
			SpuriousLags: runs[0].Profile.SpuriousCount(),
		}
		s.Configs = append(s.Configs, cs)

		b := stats.NewBox(res.PooledDurationsMS(cfg.Name))
		s.LagStats[cfg.Name] = BoxJSON{
			N: b.N, Q1: b.Q1, Median: b.Median, Q3: b.Q3,
			Max: b.Max, Mean: b.Mean, Fliers: len(b.Fliers),
		}
	}
	return s
}

// WriteSummaries serialises dataset summaries as indented JSON.
func WriteSummaries(w io.Writer, results []*MatrixResult) error {
	var out []*Summary
	for _, res := range results {
		out = append(out, res.Summarise())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
