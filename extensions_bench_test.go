package repro_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/evdev"
	"repro/internal/governor"
	"repro/internal/match"
	"repro/internal/netproxy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkQoEAwareGovernor evaluates the paper's future-work governor —
// irritation metric integrated into the policy — against the oracle on
// dataset 01, reporting its normalised energy and irritation alongside the
// stock governors' (paper §VI: "make energy efficient frequency governor
// decisions at runtime").
func BenchmarkQoEAwareGovernor(b *testing.B) {
	results, _ := evaluationMatrix(b)
	res := results[0]

	perLagOPP := make(map[int]int)
	for lag, ch := range res.Oracles[0].PerLag {
		perLagOPP[lag] = ch.OPPIndex
	}
	var normE, irr float64
	for i := 0; i < b.N; i++ {
		gov := governor.NewQoEAware()
		gov.LearnBoost(perLagOPP, 0.9)
		art := workload.Replay(res.Workload, res.Recording, gov, gov.Name(), 123, true)
		profile, err := match.Match(art.Video, res.DB, res.Gestures, gov.Name(), match.Options{Strict: true})
		if err != nil {
			b.Fatal(err)
		}
		energy, err := res.Model.Energy(art.BusyByCluster)
		if err != nil {
			b.Fatal(err)
		}
		normE = energy / res.OracleEnergyJ
		irr = core.Irritation(profile, res.Thresholds).Seconds()
	}
	b.ReportMetric(normE, "qoeE/oracle")
	b.ReportMetric(irr, "qoe-irritation-s")
	b.ReportMetric(res.NormEnergy("interactive"), "interactiveE/oracle")
	b.ReportMetric(res.NormEnergy("ondemand"), "ondemandE/oracle")
}

// BenchmarkJankCharacterization runs the future-work jank workload (the
// RetroRunner game) under representative configurations and reports dropped
// frame ratios — the "frames are dropped when the processor is too busy"
// lag class the paper defers.
func BenchmarkJankCharacterization(b *testing.B) {
	playJank := func(gov governor.Governor) float64 {
		eng := sim.NewEngine()
		d := device.New(eng, 5, gov, device.Profile{Telemetry: true})
		enc := evdev.NewEncoder()
		tap := func(at sim.Time, x, y int) {
			for _, ev := range enc.EncodeTap(at, x, y) {
				ev := ev
				d.Eng.At(ev.Time, func(*sim.Engine) { d.Inject(ev) })
			}
		}
		r, _ := d.Launcher().IconRect(apps.RetroRunnerName)
		cx, cy := r.Center()
		tap(sim.Time(sim.Second), cx, cy)
		eng.RunUntil(sim.Time(20 * sim.Second))
		px, py := apps.GamePlayButton.Center()
		tap(sim.Time(21*sim.Second), px, py)
		eng.RunUntil(sim.Time(36 * sim.Second))
		g := d.App(apps.RetroRunnerName).(*apps.RetroRunner)
		return g.JankRatio()
	}

	tbl := powerTable(b)
	var low, mid, top, ond float64
	for i := 0; i < b.N; i++ {
		low = playJank(governor.NewFixed(tbl, 0))
		mid = playJank(governor.NewFixed(tbl, 5))
		top = playJank(governor.NewFixed(tbl, 13))
		ond = playJank(governor.NewOndemand())
	}
	b.ReportMetric(low*100, "jank%-0.30GHz")
	b.ReportMetric(mid*100, "jank%-0.96GHz")
	b.ReportMetric(top*100, "jank%-2.15GHz")
	b.ReportMetric(ond*100, "jank%-ondemand")
}

// BenchmarkNetProxyDeterminism measures replaying a network-heavy workload
// with the deterministic network proxy (future work §VI) and reports the
// residual lag spread between differently-seeded replays, with and without
// the proxy: Σ|Δlag| over the interactions of seeds 2 and 3. Summing each
// lag's own deviation keeps opposite-signed deviations from cancelling, as
// they would in a difference of total lag.
func BenchmarkNetProxyDeterminism(b *testing.B) {
	w := workload.Dataset05() // Pulse News: network-heavy
	rec, _, err := w.Record(1)
	if err != nil {
		b.Fatal(err)
	}
	// lags returns each interaction's lag, 0 for spurious or incomplete ones.
	lags := func(seed uint64, proxy *netproxy.Proxy) []sim.Duration {
		prof := w.Profile
		prof.NetProxy = proxy
		wp := *w
		wp.Profile = prof
		art := workload.Replay(&wp, rec, governor.NewInteractive(), "interactive", seed, false)
		out := make([]sim.Duration, len(art.Truths))
		for i, gt := range art.Truths {
			if !gt.Spurious && gt.Complete {
				out[i] = gt.CompleteTime.Sub(gt.InputTime)
			}
		}
		return out
	}
	spread := func(a, c []sim.Duration) sim.Duration {
		if len(a) != len(c) {
			b.Fatalf("replays saw %d and %d interactions", len(a), len(c))
		}
		var sum sim.Duration
		for i := range a {
			d := a[i] - c[i]
			if d < 0 {
				d = -d
			}
			sum += d
		}
		return sum
	}
	recProxy := netproxy.New(netproxy.Record)
	lags(1, recProxy)

	// misses counts the accesses of both proxied replays that found no
	// recorded timing and fell back to the live, seed-dependent one.
	var withSpread, withoutSpread sim.Duration
	misses := 0
	for i := 0; i < b.N; i++ {
		pa, pc := recProxy.ReplayCopy(), recProxy.ReplayCopy()
		withSpread = spread(lags(2, pa), lags(3, pc))
		misses = pa.Misses() + pc.Misses()
		withoutSpread = spread(lags(2, nil), lags(3, nil))
	}
	b.ReportMetric(withSpread.Seconds()*1000, "spread-ms-proxy")
	b.ReportMetric(withoutSpread.Seconds()*1000, "spread-ms-plain")
	b.ReportMetric(float64(misses), "proxy-misses")
	if withSpread >= withoutSpread {
		b.Fatalf("proxy spread %v not below plain %v", withSpread, withoutSpread)
	}
}

func powerTable(b *testing.B) power.Table {
	_, model := evaluationMatrix(b)
	return model.Table
}
