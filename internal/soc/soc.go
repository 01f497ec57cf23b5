package soc

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/sim"
)

// ClusterSpec describes one frequency domain of an SoC.
type ClusterSpec struct {
	// Name is the cluster label, e.g. "krait", "little", "big".
	Name string
	// NumCores is the number of identical cores sharing the domain's clock.
	NumCores int
	// Table is the cluster's OPP ladder.
	Table power.Table
	// Silicon holds the physical constants used to calibrate the cluster's
	// power model.
	Silicon power.Silicon
	// IdleStates is the cluster's C-state ladder, shallow to deep. Empty
	// disables the idle subsystem entirely: the cluster never sleeps, wakes
	// cost nothing, and every trace is bit-for-bit identical to the pre-idle
	// simulator. DefaultIdleStates builds the standard WFI/core-off/
	// cluster-off ladder from the cluster's silicon.
	IdleStates []IdleState
}

// Spec describes a whole SoC: its clusters (little-to-big order) and the
// task scheduler tunables. The zero value is not valid; use Dragonboard,
// BigLittle44 or build a custom spec. Specs are plain values, safe to copy
// and share between goroutines.
type Spec struct {
	// Name identifies the spec in reports, e.g. "biglittle-4x4".
	Name string
	// Clusters lists the frequency domains in little-to-big order.
	Clusters []ClusterSpec
	// Sched tunes the HMP task scheduler; the zero value takes defaults.
	Sched SchedParams
}

// Validate checks the spec is buildable.
func (s Spec) Validate() error {
	if len(s.Clusters) == 0 {
		return fmt.Errorf("soc: spec %q has no clusters", s.Name)
	}
	for i, cs := range s.Clusters {
		if cs.NumCores < 1 {
			return fmt.Errorf("soc: spec %q cluster %d (%s) has %d cores", s.Name, i, cs.Name, cs.NumCores)
		}
		if err := cs.Table.Validate(); err != nil {
			return fmt.Errorf("soc: spec %q cluster %d (%s): %w", s.Name, i, cs.Name, err)
		}
		if err := validateIdleLadder(cs.IdleStates); err != nil {
			return fmt.Errorf("soc: spec %q cluster %d (%s): %w", s.Name, i, cs.Name, err)
		}
	}
	return nil
}

// ClusterNames returns the cluster labels in spec order.
func (s Spec) ClusterNames() []string {
	names := make([]string, len(s.Clusters))
	for i, cs := range s.Clusters {
		names[i] = cs.Name
	}
	return names
}

// Calibrate runs the paper's microbenchmark power calibration for every
// cluster of the spec, returning the multi-table model used for per-cluster
// energy attribution. Clusters with a C-state ladder also attach their
// per-state leakage to the model, so energy accounting can price idle
// residency instead of treating a sleeping cluster as free.
func (s Spec) Calibrate(benchDur sim.Duration) (*power.SoCModel, error) {
	var tables []power.Table
	var silicon []power.Silicon
	for _, cs := range s.Clusters {
		tables = append(tables, cs.Table)
		silicon = append(silicon, cs.Silicon)
	}
	m, err := power.CalibrateClusters(s.ClusterNames(), tables, silicon, benchDur)
	if err != nil {
		return nil, err
	}
	for i, cs := range s.Clusters {
		if len(cs.IdleStates) == 0 {
			continue
		}
		names := make([]string, len(cs.IdleStates))
		powers := make([]float64, len(cs.IdleStates))
		for k, st := range cs.IdleStates {
			names[k] = st.Name
			powers[k] = st.PowerW
		}
		m.SetIdleLadder(i, names, powers)
	}
	return m, nil
}

// Dragonboard returns the paper's platform: the Qualcomm Dragonboard APQ8074
// with a single enabled Krait core on the 14-point Snapdragon 8074 ladder.
// Booting this spec reproduces the pre-multi-cluster simulator bit for bit:
// one cluster, no migration timer, every task placed on the one core.
func Dragonboard() Spec {
	return Spec{
		Name: "dragonboard-apq8074",
		Clusters: []ClusterSpec{
			{Name: "krait", NumCores: 1, Table: power.Snapdragon8074(), Silicon: power.DefaultSilicon()},
		},
	}
}

// BigLittle44 returns a 4+4 heterogeneous big.LITTLE SoC: four in-order
// little cores on a low-voltage 8-point ladder and four out-of-order big
// cores on the Snapdragon 8074 ladder, with HMP-style little-first
// scheduling and load-driven up-migration.
func BigLittle44() Spec {
	return Spec{
		Name: "biglittle-4x4",
		Clusters: []ClusterSpec{
			{Name: "little", NumCores: 4, Table: power.LittleCortex(), Silicon: power.LittleSilicon()},
			{Name: "big", NumCores: 4, Table: power.Snapdragon8074(), Silicon: power.BigSilicon()},
		},
		Sched: DefaultSchedParams(),
	}
}

// SoC is a set of clusters plus the task scheduler that places and migrates
// tasks across them. A single-cluster SoC degenerates to the direct
// cluster-submission path of the original simulator: no scheduler events are
// created at all.
type SoC struct {
	eng      *sim.Engine
	spec     Spec
	clusters []*Cluster
	sched    *scheduler
	// pool and zq are shared by every cluster of the SoC, so a task migrated
	// between clusters still drains back to the one pool it came from.
	pool *taskPool
	zq   *zeroQ
}

// New builds an SoC from a spec. It panics on an invalid spec, mirroring
// NewCluster — a bad spec is a programming error, not a runtime condition.
func New(eng *sim.Engine, spec Spec) *SoC {
	if err := spec.Validate(); err != nil {
		panic(err.Error())
	}
	s := &SoC{eng: eng, spec: spec}
	s.pool = &taskPool{}
	s.zq = newZeroQ(eng, s.pool)
	for i, cs := range spec.Clusters {
		cl := NewCluster(eng, cs)
		cl.id = i
		cl.pool, cl.zq = s.pool, s.zq
		s.clusters = append(s.clusters, cl)
	}
	if len(s.clusters) > 1 {
		s.sched = newScheduler(s, spec.Sched)
	}
	return s
}

// Reset returns the SoC to the state New leaves it in, keeping its buffers:
// every cluster at its boot values, no zero-cycle task pending, no migration
// counted, no rebalance tick armed, and every task the pool ever created
// free again, in creation order. Tasks live when Reset is called are
// dropped. Rewind the engine first (sim.Engine.Reset): the pending cluster,
// scheduler and zero-cycle events live in its queue, and an idle cluster
// re-enters its deepest state at the engine's current instant.
func (s *SoC) Reset() {
	for _, c := range s.clusters {
		c.reset()
	}
	s.zq.q = s.zq.q[:0]
	if s.sched != nil {
		s.sched.migrations, s.sched.tickPending = 0, false
	}
	s.pool.freeAll()
}

// Spec returns the spec the SoC was built from.
func (s *SoC) Spec() Spec { return s.spec }

// Clusters returns the live clusters in spec (little-to-big) order.
func (s *SoC) Clusters() []*Cluster { return s.clusters }

// Cluster returns cluster i.
func (s *SoC) Cluster(i int) *Cluster { return s.clusters[i] }

// NumClusters returns the number of frequency domains.
func (s *SoC) NumClusters() int { return len(s.clusters) }

// Submit places a migratable CPU burst through the scheduler. On a
// single-cluster SoC this is exactly Cluster.Submit on the one cluster.
func (s *SoC) Submit(name string, cycles Cycles, onDone func(at sim.Time)) Handle {
	if s.sched == nil {
		return s.clusters[0].Submit(name, cycles, onDone)
	}
	return s.sched.submit(name, cycles, onDone)
}

// SubmitPinned places a CPU burst on one specific cluster; the scheduler
// never migrates it. It panics on an out-of-range cluster index, mirroring
// New and device.NewMulti — silently clamping to cluster 0 would run pinned
// work on the wrong silicon and skew per-cluster accounting without a trace.
func (s *SoC) SubmitPinned(cluster int, name string, cycles Cycles, onDone func(at sim.Time)) Handle {
	if cluster < 0 || cluster >= len(s.clusters) {
		panic(fmt.Sprintf("soc: SubmitPinned cluster %d out of range on %q (%d clusters)",
			cluster, s.spec.Name, len(s.clusters)))
	}
	return s.clusters[cluster].Submit(name, cycles, onDone)
}

// Cancel removes a task wherever it currently lives. Stale handles are a
// no-op: the generation check guarantees a recycled task is never touched.
func (s *SoC) Cancel(h Handle) {
	if !h.ok() || h.t.done || h.t.cancelled {
		return
	}
	t := h.t
	if t.owner != nil {
		t.owner.cancelTask(t)
		return
	}
	t.cancelled = true
}

// CumulativeBusy returns total core-busy time summed over all clusters — the
// aggregate the busy curve samples. For a single-cluster SoC it equals the
// cluster's own counter.
func (s *SoC) CumulativeBusy() sim.Duration {
	var sum sim.Duration
	for _, c := range s.clusters {
		sum += c.CumulativeBusy()
	}
	return sum
}

// BusyByCluster returns the per-OPP busy histogram of every cluster — the
// input to per-cluster energy attribution.
func (s *SoC) BusyByCluster() [][]sim.Duration {
	out := make([][]sim.Duration, len(s.clusters))
	for i, c := range s.clusters {
		out[i] = c.BusyByOPP()
	}
	return out
}

// Migrations returns how many tasks the scheduler has moved between
// clusters (always 0 on a single-cluster SoC).
func (s *SoC) Migrations() int {
	if s.sched == nil {
		return 0
	}
	return s.sched.migrations
}

// String summarises SoC state.
func (s *SoC) String() string {
	return fmt.Sprintf("soc.SoC{%s, %d clusters}", s.spec.Name, len(s.clusters))
}
