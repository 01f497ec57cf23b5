package soc

import (
	"testing"

	"repro/internal/power"
	"repro/internal/sim"
)

func newBigLittle() (*sim.Engine, *SoC) {
	eng := sim.NewEngine()
	return eng, New(eng, BigLittle44())
}

// heavy is comfortably above the default UpCycles threshold; light is below.
const (
	heavyCycles = 200_000_000
	lightCycles = 10_000_000
)

func TestSpecValidate(t *testing.T) {
	if err := Dragonboard().Validate(); err != nil {
		t.Fatalf("Dragonboard: %v", err)
	}
	if err := BigLittle44().Validate(); err != nil {
		t.Fatalf("BigLittle44: %v", err)
	}
	if err := (Spec{Name: "empty"}).Validate(); err == nil {
		t.Fatal("empty spec validated")
	}
	bad := Dragonboard()
	bad.Clusters[0].NumCores = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-core cluster validated")
	}
}

// TestSingleClusterEquivalence pins the tentpole's compatibility guarantee:
// a single-cluster SoC built from the Dragonboard spec produces the exact
// busy accounting and completion instants of a bare Cluster — the
// pre-multi-cluster simulator — for an interleaved task mix with frequency
// changes.
func TestSingleClusterEquivalence(t *testing.T) {
	type runResult struct {
		doneAt    []sim.Time
		busyByOPP []sim.Duration
		cumBusy   sim.Duration
		freq      []int
	}
	exercise := func(submit func(name string, cycles Cycles, onDone func(at sim.Time)) Handle,
		ctl *Cluster, eng *sim.Engine) runResult {
		var res runResult
		record := func(sim.Time) {}
		_ = record
		done := func(at sim.Time) { res.doneAt = append(res.doneAt, at) }
		ctl.OnFreqChange = func(at sim.Time, idx int) { res.freq = append(res.freq, idx) }
		submit("a", 300_000_000, done)
		eng.AtFunc(sim.Time(5*sim.Millisecond), func() { submit("b", 90_000_000, done) })
		eng.AtFunc(sim.Time(200*sim.Millisecond), func() { ctl.RequestOPPIndex(9) })
		eng.AtFunc(sim.Time(400*sim.Millisecond), func() { submit("c", 50_000_000, done) })
		eng.AtFunc(sim.Time(450*sim.Millisecond), func() { ctl.RequestOPPIndex(2) })
		eng.Run()
		res.busyByOPP = ctl.BusyByOPP()
		res.cumBusy = ctl.CumulativeBusy()
		return res
	}

	engA := sim.NewEngine()
	bare := NewCore(engA, power.Snapdragon8074())
	a := exercise(bare.Submit, bare, engA)

	engB := sim.NewEngine()
	s := New(engB, Dragonboard())
	b := exercise(s.Submit, s.Cluster(0), engB)

	if len(a.doneAt) != 3 || len(b.doneAt) != 3 {
		t.Fatalf("completions: bare %d, soc %d, want 3", len(a.doneAt), len(b.doneAt))
	}
	for i := range a.doneAt {
		if a.doneAt[i] != b.doneAt[i] {
			t.Errorf("completion %d: bare %v, soc %v", i, a.doneAt[i], b.doneAt[i])
		}
	}
	if a.cumBusy != b.cumBusy {
		t.Errorf("cumBusy: bare %v, soc %v", a.cumBusy, b.cumBusy)
	}
	for i := range a.busyByOPP {
		if a.busyByOPP[i] != b.busyByOPP[i] {
			t.Errorf("busyByOPP[%d]: bare %v, soc %v", i, a.busyByOPP[i], b.busyByOPP[i])
		}
	}
	if len(a.freq) != len(b.freq) {
		t.Errorf("freq transitions: bare %d, soc %d", len(a.freq), len(b.freq))
	}
	if s.Migrations() != 0 {
		t.Errorf("single-cluster SoC migrated %d tasks", s.Migrations())
	}
}

func TestMultiCoreClusterRunsInParallel(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCluster(eng, ClusterSpec{Name: "quad", NumCores: 4, Table: power.Snapdragon8074()})
	// Four equal tasks on four cores finish together, in the time one task
	// takes alone: 300M cycles at 300 MHz = 1 s.
	var doneAt []sim.Time
	for i := 0; i < 4; i++ {
		c.Submit("w", 300_000_000, func(at sim.Time) { doneAt = append(doneAt, at) })
	}
	eng.Run()
	if len(doneAt) != 4 {
		t.Fatalf("%d completions, want 4", len(doneAt))
	}
	for i, at := range doneAt {
		if at != sim.Time(1*sim.Second) {
			t.Errorf("task %d done at %v, want 1s", i, at)
		}
	}
	if c.CumulativeBusy() != 4*sim.Second {
		t.Errorf("cumBusy = %v, want 4s of core-time", c.CumulativeBusy())
	}
}

func TestMultiCoreRoundRobinOversubscribed(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCluster(eng, ClusterSpec{Name: "duo", NumCores: 2, Table: power.Snapdragon8074()})
	// Four equal tasks on two cores: round-robin keeps completions within a
	// slice of each other, total busy is the full demand.
	var doneAt []sim.Time
	for i := 0; i < 4; i++ {
		c.Submit("w", 150_000_000, func(at sim.Time) { doneAt = append(doneAt, at) })
	}
	eng.Run()
	if len(doneAt) != 4 {
		t.Fatalf("%d completions, want 4", len(doneAt))
	}
	gap := doneAt[3].Sub(doneAt[0])
	if gap > sim.Duration(2*TimeSlice) {
		t.Errorf("completion spread %v exceeds two slices", gap)
	}
	if c.CumulativeBusy() != 2*sim.Second {
		t.Errorf("cumBusy = %v, want 2s", c.CumulativeBusy())
	}
}

func TestPlacementLittleFirst(t *testing.T) {
	eng, s := newBigLittle()
	little, big := s.Cluster(0), s.Cluster(1)
	s.Submit("light", lightCycles, nil)
	if little.Runnable() != 1 || big.Runnable() != 0 {
		t.Fatalf("light task on little=%d big=%d, want little-first", little.Runnable(), big.Runnable())
	}
	eng.Run()
}

func TestPlacementHeavyWakesBig(t *testing.T) {
	eng, s := newBigLittle()
	little, big := s.Cluster(0), s.Cluster(1)
	s.Submit("heavy", heavyCycles, nil)
	if big.Runnable() != 1 || little.Runnable() != 0 {
		t.Fatalf("heavy task on little=%d big=%d, want big-first", little.Runnable(), big.Runnable())
	}
	eng.Run()
}

func TestPlacementOverflowsWhenLittleFull(t *testing.T) {
	eng, s := newBigLittle()
	little, big := s.Cluster(0), s.Cluster(1)
	for i := 0; i < 4; i++ {
		s.Submit("light", lightCycles, nil)
	}
	if little.Runnable() != 4 || big.Runnable() != 0 {
		t.Fatalf("after 4 light: little=%d big=%d", little.Runnable(), big.Runnable())
	}
	// Little cores are all busy: the fifth light task wakes on a free big core.
	s.Submit("light-overflow", lightCycles, nil)
	if big.Runnable() != 1 {
		t.Fatalf("overflow task not on big (little=%d big=%d)", little.Runnable(), big.Runnable())
	}
	eng.Run()
}

// oneOne is a 1+1 spec that makes queue formation — and hence migration —
// easy to construct deterministically.
func oneOne() Spec {
	return Spec{
		Name: "test-1+1",
		Clusters: []ClusterSpec{
			{Name: "little", NumCores: 1, Table: power.LittleCortex(), Silicon: power.LittleSilicon()},
			{Name: "big", NumCores: 1, Table: power.Snapdragon8074(), Silicon: power.BigSilicon()},
		},
		Sched: DefaultSchedParams(),
	}
}

func TestUpMigrationOnLoad(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, oneOne())
	little, big := s.Cluster(0), s.Cluster(1)
	// Keep the big core busy with pinned work (3 runnable), then pile four
	// light migratable tasks onto little: its load (4 per core) crosses
	// UpRunnablePerCore, so the rebalance tick must up-migrate queued little
	// tasks to the less-loaded big cluster.
	for i := 0; i < 3; i++ {
		s.SubmitPinned(1, "big-pinned", 4_000_000_000, nil)
	}
	for i := 0; i < 4; i++ {
		s.Submit("light", 40_000_000, nil)
	}
	if little.Runnable() != 4 {
		t.Fatalf("little runnable = %d, want 4 (1 running + 3 queued)", little.Runnable())
	}
	eng.RunUntil(sim.Time(60 * sim.Millisecond))
	if s.Migrations() == 0 {
		t.Fatal("no up-migrations despite overloaded little cluster")
	}
	if got := big.Runnable(); got <= 3 {
		t.Fatalf("big runnable = %d, want pinned 3 plus migrated tasks", got)
	}
	eng.Run()
}

func TestIdlePullDownMigration(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, oneOne())
	little, big := s.Cluster(0), s.Cluster(1)
	// A short pinned task occupies little while three heavy migratable tasks
	// arrive: one runs big, the backlog queues. When little finishes its own
	// work, the freed core must pull big's queued backlog down.
	s.SubmitPinned(0, "little-pinned", 4_000_000, nil)
	for i := 0; i < 3; i++ {
		s.Submit("heavy", heavyCycles, nil)
	}
	if big.Runnable() < 2 {
		t.Fatalf("big runnable = %d, want running + queued backlog", big.Runnable())
	}
	eng.Run()
	if s.Migrations() == 0 {
		t.Fatal("no migrations: queued heavy tasks never spilled to the freed little core")
	}
	if little.CumulativeBusy() == 0 {
		t.Fatal("little cluster never ran spilled work")
	}
	if little.Runnable() != 0 || big.Runnable() != 0 {
		t.Fatal("work left behind after drain")
	}
}

func TestPinnedTasksNeverMigrate(t *testing.T) {
	eng, s := newBigLittle()
	little := s.Cluster(0)
	// Oversubscribe little with pinned tasks while big is idle: none may move.
	for i := 0; i < 10; i++ {
		s.SubmitPinned(0, "pinned", 40_000_000, nil)
	}
	eng.RunUntil(sim.Time(200 * sim.Millisecond))
	if s.Migrations() != 0 {
		t.Fatalf("%d migrations of pinned tasks", s.Migrations())
	}
	if got := s.Cluster(1).CumulativeBusy(); got != 0 {
		t.Fatalf("big ran %v of pinned-little work", got)
	}
	eng.Run()
	if little.CumulativeBusy() == 0 {
		t.Fatal("pinned work never ran")
	}
}

func TestSoCCancel(t *testing.T) {
	eng, s := newBigLittle()
	ran := false
	task := s.Submit("doomed", heavyCycles, func(sim.Time) { ran = true })
	eng.AtFunc(sim.Time(10*sim.Millisecond), func() { s.Cancel(task) })
	eng.Run()
	if ran {
		t.Fatal("cancelled task completed")
	}
	if task.Done() {
		t.Fatal("cancelled task marked done")
	}
}

func TestBusyByClusterShapes(t *testing.T) {
	eng, s := newBigLittle()
	s.Submit("light", lightCycles, nil)
	s.Submit("heavy", heavyCycles, nil)
	eng.Run()
	busy := s.BusyByCluster()
	if len(busy) != 2 {
		t.Fatalf("%d cluster histograms, want 2", len(busy))
	}
	if len(busy[0]) != len(power.LittleCortex()) || len(busy[1]) != len(power.Snapdragon8074()) {
		t.Fatalf("histogram sizes %d/%d do not match tables", len(busy[0]), len(busy[1]))
	}
	if busy[0][0] == 0 || busy[1][0] == 0 {
		t.Fatal("expected busy time on both clusters at OPP 0")
	}
	if s.CumulativeBusy() == 0 {
		t.Fatal("aggregate busy is zero")
	}
}

func TestSchedulerIsDeterministic(t *testing.T) {
	run := func() (sim.Time, int, sim.Duration) {
		eng, s := newBigLittle()
		var last sim.Time
		for i := 0; i < 30; i++ {
			cyc := Cycles(5_000_000 * (i%7 + 1))
			if i%5 == 0 {
				cyc = heavyCycles
			}
			at := sim.Time(i) * sim.Time(3*sim.Millisecond)
			eng.AtFunc(at, func() {
				s.Submit("w", cyc, func(t sim.Time) { last = t })
			})
		}
		eng.Run()
		return last, s.Migrations(), s.CumulativeBusy()
	}
	l1, m1, b1 := run()
	l2, m2, b2 := run()
	if l1 != l2 || m1 != m2 || b1 != b2 {
		t.Fatalf("runs diverged: (%v,%d,%v) vs (%v,%d,%v)", l1, m1, b1, l2, m2, b2)
	}
}
