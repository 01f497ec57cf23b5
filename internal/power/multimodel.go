package power

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// LittleCortex returns the 8-point OPP ladder of an in-order little cluster
// (Cortex-A53 class): low voltages across the whole range and a modest top
// clock, so background work is cheap but heavy interaction bursts need the
// big cluster.
func LittleCortex() Table {
	return Table{
		{KHz: 400000, Volt: 0.700},
		{KHz: 533300, Volt: 0.700},
		{KHz: 666600, Volt: 0.720},
		{KHz: 800000, Volt: 0.750},
		{KHz: 933300, Volt: 0.780},
		{KHz: 1066600, Volt: 0.820},
		{KHz: 1200000, Volt: 0.870},
		{KHz: 1401600, Volt: 0.950},
	}
}

// LittleSilicon returns physical constants for the little cluster: roughly a
// third of the big cluster's switched capacitance and a much smaller active
// floor, which is what makes parking background work there worthwhile.
func LittleSilicon() Silicon {
	return Silicon{CnJPerV2: 0.35, BaseActiveW: 0.012, PlatformIdleW: 1.25}
}

// BigSilicon returns physical constants for the big (Krait/A57-class)
// cluster — the paper's calibrated silicon.
func BigSilicon() Silicon { return DefaultSilicon() }

// SoCModel is the calibrated power model of a multi-cluster SoC: one per-OPP
// dynamic model per cluster, in the SoC's little-to-big cluster order. It
// attributes energy per cluster, which is what the big.LITTLE experiments
// report. Clusters with a C-state ladder additionally carry per-state
// leakage (Idle), so idle residency is priced instead of treated as free.
type SoCModel struct {
	Names  []string
	Models []*Model
	// Idle holds one leakage ladder per cluster, parallel to Models; a nil
	// entry (or a nil slice) means that cluster has no C-state ladder and
	// its idle time costs nothing, the pre-idle behaviour.
	Idle []*IdleLadder
}

// IdleLadder is the leakage view of one cluster's C-state ladder: state
// names shallow to deep and the cluster leakage power (watts) while
// resident in each.
type IdleLadder struct {
	Names  []string
	PowerW []float64
}

// CalibrateClusters runs the paper's microbenchmark calibration once per
// cluster. names, tables and silicon run parallel; benchDur <= 0 uses the
// calibration default.
func CalibrateClusters(names []string, tables []Table, silicon []Silicon, benchDur sim.Duration) (*SoCModel, error) {
	if len(tables) == 0 || len(tables) != len(silicon) || len(tables) != len(names) {
		return nil, fmt.Errorf("power: calibrate clusters: %d names, %d tables, %d silicon", len(names), len(tables), len(silicon))
	}
	m := &SoCModel{Names: append([]string(nil), names...)}
	for i, tbl := range tables {
		cm, err := Calibrate(tbl, silicon[i], benchDur)
		if err != nil {
			return nil, fmt.Errorf("power: calibrate cluster %s: %w", names[i], err)
		}
		m.Models = append(m.Models, cm)
	}
	return m, nil
}

// Cluster returns the calibrated model of cluster i.
func (m *SoCModel) Cluster(i int) *Model { return m.Models[i] }

// SetIdleLadder attaches the per-state leakage of cluster i's C-state
// ladder. names and powerW run parallel, shallow to deep.
func (m *SoCModel) SetIdleLadder(i int, names []string, powerW []float64) {
	if m.Idle == nil {
		m.Idle = make([]*IdleLadder, len(m.Models))
	}
	m.Idle[i] = &IdleLadder{Names: names, PowerW: powerW}
}

// IdleLadderOf returns cluster i's leakage ladder, or nil when the cluster
// has no C-state ladder.
func (m *SoCModel) IdleLadderOf(i int) *IdleLadder {
	if m.Idle == nil || i < 0 || i >= len(m.Idle) {
		return nil
	}
	return m.Idle[i]
}

// HasIdle reports whether any cluster carries a leakage ladder.
func (m *SoCModel) HasIdle() bool {
	for _, l := range m.Idle {
		if l != nil {
			return true
		}
	}
	return false
}

// IdleFloorW returns cluster i's shallowest-state leakage power — what the
// silicon draws when it has just stopped (or is about to resume) executing,
// the rate wake stalls are priced at. 0 when the cluster has no ladder.
func (m *SoCModel) IdleFloorW(i int) float64 {
	l := m.IdleLadderOf(i)
	if l == nil || len(l.PowerW) == 0 {
		return 0
	}
	return l.PowerW[0]
}

// IdleParkW returns cluster i's deepest-state leakage power — what a
// long-parked cluster draws once the idle selector has sunk it to the bottom
// of the ladder. Oracle pricing uses this for candidate idle windows: the
// windows are the workload's long think-time gaps, which measured runs park
// in the deepest state almost exclusively. 0 when the cluster has no ladder.
func (m *SoCModel) IdleParkW(i int) float64 {
	l := m.IdleLadderOf(i)
	if l == nil || len(l.PowerW) == 0 {
		return 0
	}
	return l.PowerW[len(l.PowerW)-1]
}

// IdleLeakEnergy prices cluster i's whole idle record in joules: per-state
// residency at each state's leakage power plus the wake-stall time at the
// shallowest-state floor (the silicon is awake but not yet executing). This
// is the one formula behind every leakage number reported — the experiment
// energy columns and the per-cluster summary both call it.
func (m *SoCModel) IdleLeakEnergy(i int, residency []sim.Duration, stall sim.Duration) (float64, error) {
	e, err := m.IdleEnergy(i, residency)
	if err != nil {
		return 0, err
	}
	// float64(...) rounds the product so no architecture fuses it into the
	// add (see tools/fmacheck).
	return e + float64(m.IdleFloorW(i)*stall.Seconds()), nil
}

// IdleEnergy computes cluster i's leakage energy in joules from its
// per-state idle residency (shallow-to-deep, as trace.IdleTrace records
// it). A cluster without a ladder charges nothing.
func (m *SoCModel) IdleEnergy(i int, residency []sim.Duration) (float64, error) {
	l := m.IdleLadderOf(i)
	if l == nil {
		return 0, nil
	}
	if len(residency) != len(l.PowerW) {
		return 0, fmt.Errorf("power: cluster %s idle residency has %d states, ladder has %d",
			m.Names[i], len(residency), len(l.PowerW))
	}
	var e float64
	for k, d := range residency {
		e += float64(l.PowerW[k] * d.Seconds())
	}
	return e, nil
}

// ClusterEnergy computes the dynamic energy of one cluster from its per-OPP
// busy histogram.
func (m *SoCModel) ClusterEnergy(i int, busyByOPP []sim.Duration) (float64, error) {
	if i < 0 || i >= len(m.Models) {
		return 0, fmt.Errorf("power: no cluster %d in %d-cluster model", i, len(m.Models))
	}
	e, err := m.Models[i].Energy(busyByOPP)
	if err != nil {
		return 0, fmt.Errorf("power: cluster %s: %w", m.Names[i], err)
	}
	return e, nil
}

// Energy sums dynamic energy over all clusters. busyByCluster must have one
// per-OPP histogram per cluster, in model order.
func (m *SoCModel) Energy(busyByCluster [][]sim.Duration) (float64, error) {
	if len(busyByCluster) != len(m.Models) {
		return 0, fmt.Errorf("power: busy histograms for %d clusters, model has %d", len(busyByCluster), len(m.Models))
	}
	var total float64
	for i, busy := range busyByCluster {
		e, err := m.ClusterEnergy(i, busy)
		if err != nil {
			return 0, err
		}
		total += e
	}
	return total, nil
}

// String summarises the model.
func (m *SoCModel) String() string {
	return fmt.Sprintf("power.SoCModel{%s}", strings.Join(m.Names, "+"))
}
