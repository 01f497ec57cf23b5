package experiment

import (
	"testing"

	"repro/internal/governor"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// TestSustainedThermalSweep is the acceptance scenario: a sustained
// big.LITTLE export marathon replayed with and without a thermal trip. It
// checks the full thread — cap-down/cap-up events land in the trace, the
// throttled arm of at least one governor loses QoE while its peak
// temperature drops, and the record-only arm never throttles.
func TestSustainedThermalSweep(t *testing.T) {
	w := workload.ExportMarathon()
	w.Profile.SoC = soc.BigLittle44()
	configs := []Config{
		{Name: "performance", OPPIndex: -1,
			NewGovernor: func() governor.Governor { return governor.Performance(power.Snapdragon8074()) }},
		{Name: "interactive", OPPIndex: -1,
			NewGovernor: func() governor.Governor { return governor.NewInteractive() }},
	}
	res, err := RunSustained(w, configs, SustainedOptions{
		Options: Options{Reps: 1, Seed: 1},
		Repeats: 3,
		Thermal: thermal.PhoneConfig(2, 30, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Runs); got != len(configs)*2 {
		t.Fatalf("%d runs, want %d", got, len(configs)*2)
	}

	// Record-only arms must never cap and must still trace temperatures.
	for _, cfg := range res.Configs {
		for _, r := range res.RunsFor(cfg, false) {
			if r.ThrottleEvents() != 0 {
				t.Fatalf("%s record-only arm has %d throttle events", cfg, r.ThrottleEvents())
			}
			for _, ct := range r.Clusters {
				if ct.Temp.Len() == 0 {
					t.Fatalf("%s record-only arm traced no temperatures for %s", cfg, ct.Name)
				}
			}
		}
	}

	// The performance pin is the hot configuration: its throttled arm must
	// show cap-downs AND cap-ups, degrade QoE, and lower peak temperature.
	hot := res.RunsFor("performance", true)[0]
	big := hot.Clusters[1]
	if big.Throttle.CapDowns() == 0 || big.Throttle.CapUps() == 0 {
		t.Fatalf("throttled performance arm: %d cap-downs, %d cap-ups; want both > 0",
			big.Throttle.CapDowns(), big.Throttle.CapUps())
	}
	if big.Throttle.ThrottledTime(sim.Time(res.Window)) == 0 {
		t.Fatal("throttled performance arm reports zero throttled time")
	}
	dIrr := res.MeanIrritationS("performance", true) - res.MeanIrritationS("performance", false)
	if dIrr <= 0 {
		t.Fatalf("performance irritation delta %.2fs under throttling, want > 0", dIrr)
	}
	dPeak := res.MeanPeakC("performance", false, 1) - res.MeanPeakC("performance", true, 1)
	if dPeak <= 0 {
		t.Fatalf("performance big-cluster peak rose %.2f°C under throttling, want a drop", -dPeak)
	}

	// With per-core load tracking the interactive governor sees the serial
	// export saturating one big core (max-of-CPUs, not the domain average
	// that read 25% and stayed cold), ramps up, heats the package and pays
	// QoE under throttling just like the pin — the PR 2 ROADMAP note that
	// "only pinned-frequency configs heat the package" is fixed.
	dIrrInt := res.MeanIrritationS("interactive", true) - res.MeanIrritationS("interactive", false)
	if dIrrInt <= 0 {
		t.Fatalf("interactive irritation delta %.2fs under throttling, want > 0 "+
			"(per-core load must let it heat the package)", dIrrInt)
	}
	if d := res.MeanPeakC("interactive", false, 1) - res.MeanPeakC("interactive", true, 1); d <= 0 {
		t.Fatalf("interactive big-cluster peak rose %.2f°C under throttling, want a drop", -d)
	}
	// Unthrottled, the load-based governor still serves QoE: the ramp is
	// fast enough that the sustained export shows no user irritation.
	if irr := res.MeanIrritationS("interactive", false); irr > 1.0 {
		t.Fatalf("unthrottled interactive irritation %.2fs, want ~0", irr)
	}
}

// TestSustainedRejectsConfigSelection pins that no sweep option is silently
// ignored: sustained sweeps take their configs as an argument, so a matrix
// selection in Options is an error rather than a no-op.
func TestSustainedRejectsConfigSelection(t *testing.T) {
	w := workload.ExportMarathon()
	w.Profile.SoC = soc.BigLittle44()
	configs := []Config{{Name: "ondemand", OPPIndex: -1, ArmNames: []string{"ondemand", "ondemand"}}}
	_, err := RunSustained(w, configs, SustainedOptions{
		Options: Options{Configs: []string{"ondemand"}},
		Thermal: thermal.PhoneConfig(2, 30, 5),
	})
	if err == nil {
		t.Fatal("sustained sweep accepted an Options.Configs selection it cannot honour")
	}
}
