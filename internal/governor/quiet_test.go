package governor

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/soc"
)

// liveCPU is a real cluster whose AfterIdle schedules the sample live, so a
// sample its governor asked the cluster to pass quietly runs and can be
// checked. quiet records whether the cluster would have passed the last
// armed sample (asked through AfterIdle, cluster idle at arming, not woken
// since) and due when that sample runs.
type liveCPU struct {
	*soc.Cluster
	quiet bool
	due   sim.Time
}

func (c *liveCPU) After(d sim.Duration, fn func()) {
	c.quiet, c.due = false, c.Now().Add(d)
	c.Cluster.After(d, fn)
}

func (c *liveCPU) AfterIdle(d sim.Duration, fn func()) {
	// The walk never cancels work, so no wake stall outlives its queue.
	c.quiet, c.due = c.Runnable() == 0, c.Now().Add(d)
	c.Cluster.After(d, fn)
}

// govState flattens a governor's fields by path for comparison, the way the
// fresh-state walks in soc and device compare fields: funcs (the bound
// sample) and interfaces (the CPU) are fixed at Start and skipped, slices
// are compared by content, and the load meter's scratch buffer is skipped
// because PerCoreBusy overwrites it before it is read.
func govState(v reflect.Value, path string, out map[string]any) {
	if path == ".meter.scratch" {
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for k := 0; k < v.NumField(); k++ {
			f := v.Field(k)
			govState(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem(),
				path+"."+v.Type().Field(k).Name, out)
		}
	case reflect.Func, reflect.Interface:
	case reflect.Slice:
		out[path] = reflect.AppendSlice(reflect.MakeSlice(v.Type(), 0, v.Len()), v).Interface()
	default:
		out[path] = v.Interface()
	}
}

// TestQuietSampleIsNoop walks each load-based governor on a real 4-core
// cluster with an idle ladder through random bursts, input events and
// thermal caps set and cleared. They land right after a sample; work, and
// any input that changes the request, wake the next sample as they do on a
// real cluster, and caps wake nothing. Whenever the governor armed its next
// sample quietly and nothing woke it, that sample runs live on the idle
// cluster and must leave every governor field, the request and the applied
// OPP as they were: the exactness rule that lets the engine pass it
// instead. The interactive row with hispeed at the floor must never arm
// quietly: there an input boost changes atHispeed without changing the
// request, so nothing would wake the sample. On a one-OPP ladder ondemand's
// request never moves, so only its delay check keeps a lingering sample
// live.
func TestQuietSampleIsNoop(t *testing.T) {
	spec := soc.WithDefaultIdle(soc.BigLittle44()).Clusters[1]
	oneOPP := spec
	oneOPP.Table = spec.Table[:1]
	downFactor2 := func() Governor {
		g := NewOndemand()
		g.SamplingDownFactor = 2
		return g
	}
	for _, row := range []struct {
		name      string
		spec      soc.ClusterSpec
		mk        func() Governor
		minChecks int
	}{
		{"ondemand", spec, func() Governor { return NewOndemand() }, 200},
		{"ondemand/down-factor-2", spec, downFactor2, 200},
		{"ondemand/one-opp/down-factor-2", oneOPP, downFactor2, 200},
		{"interactive", spec, func() Governor { return NewInteractive() }, 200},
		{"interactive/floor-hispeed", spec, func() Governor {
			g := NewInteractive()
			g.HispeedKHz = spec.Table.Min()
			return g
		}, 0},
		{"conservative", spec, func() Governor { return NewConservative() }, 100},
	} {
		t.Run(row.name, func(t *testing.T) {
			eng := sim.NewEngine()
			cl := soc.NewCluster(eng, row.spec)
			cpu := &liveCPU{Cluster: cl}
			g := row.mk()
			g.Start(cpu)
			rng := rand.New(rand.NewSource(1))
			checks, peak := 0, 0
			for step := 0; step < 4000; step++ {
				req := cl.RequestedOPPIndex()
				switch r := rng.Intn(20); {
				case r < 3:
					cl.Submit("burst", soc.Cycles(1_000_000+rng.Intn(300_000_000)), nil)
					cpu.quiet = false
				case r < 5:
					g.OnInput(eng.Now())
				case r < 6:
					cl.SetFreqCap("thermal", rng.Intn(len(row.spec.Table)))
				case r < 7:
					cl.ClearFreqCap("thermal")
				}
				if cl.RequestedOPPIndex() != req {
					cpu.quiet = false
				}
				quiet := cpu.quiet
				before := map[string]any{}
				govState(reflect.ValueOf(g).Elem(), "", before)
				req, opp := cl.RequestedOPPIndex(), cl.OPPIndex()
				eng.RunUntil(cpu.due)
				peak = max(peak, cl.OPPIndex())
				if !quiet {
					continue
				}
				checks++
				after := map[string]any{}
				govState(reflect.ValueOf(g).Elem(), "", after)
				for path, v := range before {
					if !reflect.DeepEqual(v, after[path]) {
						t.Fatalf("step %d at %v: a sample armed quietly changed %s from %v to %v",
							step, eng.Now(), path, v, after[path])
					}
				}
				if cl.RequestedOPPIndex() != req || cl.OPPIndex() != opp {
					t.Fatalf("step %d at %v: a sample armed quietly moved request %d→%d, OPP %d→%d",
						step, eng.Now(), req, cl.RequestedOPPIndex(), opp, cl.OPPIndex())
				}
			}
			if checks < row.minChecks || row.minChecks == 0 && checks > 0 || peak < len(row.spec.Table)/2 {
				t.Fatalf("%d quiet samples checked, peak OPP %d; want at least %d (none when 0) and a peak past mid-ladder",
					checks, peak, row.minChecks)
			}
		})
	}
}
