package device_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/governor"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/thermal"
)

// heatBig keeps one big-cluster core saturated by chaining pinned bursts
// until the deadline passes.
func heatBig(d *device.Device, cluster int, cycles int64, until sim.Time) {
	var next func(sim.Time)
	next = func(at sim.Time) {
		if at >= until {
			return
		}
		d.SoC.SubmitPinned(cluster, "heat", soc.Cycles(cycles), next)
	}
	d.SoC.SubmitPinned(cluster, "heat", soc.Cycles(cycles), next)
}

// TestDeviceThermalThrottleAndRecover drives a thermal-enabled big.LITTLE
// device through the full pipeline: sustained big-cluster load heats the
// zone past trip, the throttler caps the ladder (visible in the throttle
// trace and the applied frequency), and once the load stops the zone cools
// and the cap walks back up, restoring the governor's pending request.
func TestDeviceThermalThrottleAndRecover(t *testing.T) {
	eng := sim.NewEngine()
	prof := device.Profile{
		SoC:     soc.BigLittle44(),
		Thermal: thermal.PhoneConfig(2, 30, 3),
	}
	govs := []governor.Governor{
		governor.Powersave(power.LittleCortex()),
		governor.Performance(power.Snapdragon8074()),
	}
	d := device.NewMulti(eng, 1, govs, prof)
	big := d.SoC.Cluster(1)
	topIdx := len(big.Table()) - 1

	heatBig(d, 1, 200_000_000, sim.Time(60*sim.Second))
	eng.RunUntil(sim.Time(60 * sim.Second))

	bt := d.ClusterTraces[1]
	if bt.Temp.Len() == 0 {
		t.Fatal("no temperature samples recorded")
	}
	if peak := bt.Temp.PeakC(); peak < 30 {
		t.Fatalf("big zone peaked at %.1f°C under sustained max-frequency load, want above trip 30", peak)
	}
	if bt.Throttle.CapDowns() == 0 {
		t.Fatal("no cap-down events under sustained load past trip")
	}
	if !big.Capped() {
		t.Fatal("big cluster not capped while hot")
	}
	if big.OPPIndex() > big.CapIndex() {
		t.Fatalf("applied OPP %d above cap %d", big.OPPIndex(), big.CapIndex())
	}
	if big.RequestedOPPIndex() != topIdx {
		t.Fatalf("performance request %d lost under cap, want %d", big.RequestedOPPIndex(), topIdx)
	}
	if bt.Temp.TimeAbove(30, eng.Now()) == 0 {
		t.Fatal("no time-above-trip residency recorded")
	}

	// The heater stops at 60s: the zone cools below clear, the cap walks
	// back up, and the performance governor's pending request is restored
	// without the governor issuing a new one.
	eng.RunUntil(sim.Time(5 * sim.Minute))
	if bt.Throttle.CapUps() == 0 {
		t.Fatal("no cap-up events after the load stopped and the zone cooled")
	}
	if big.Capped() {
		t.Fatalf("big cluster still capped at %d after full cool-down", big.CapIndex())
	}
	if big.OPPIndex() != topIdx {
		t.Fatalf("applied OPP %d after caps lifted, want restored request %d", big.OPPIndex(), topIdx)
	}
}

// TestDeviceRecordOnlyZonesKeepTracesIdentical pins the acceptance
// guarantee: booting zones WITHOUT a trip (record-only) must leave the
// frequency trace, busy histogram and busy curve of a run bit-for-bit
// identical to a run with no thermal config at all — the tick only observes.
func TestDeviceRecordOnlyZonesKeepTracesIdentical(t *testing.T) {
	run := func(withZones bool) (string, float64) {
		eng := sim.NewEngine()
		prof := device.Profile{SoC: soc.BigLittle44()}
		if withZones {
			prof.Thermal = thermal.PhoneConfig(2, 0, 0) // zones, no trip
		}
		govs := []governor.Governor{governor.NewInteractive(), governor.NewInteractive()}
		d := device.NewMulti(eng, 7, govs, prof)
		heatBig(d, 1, 150_000_000, sim.Time(25*sim.Second))
		// Light little-cluster churn as well.
		for i := 0; i < 40; i++ {
			at := sim.Time(i) * sim.Time(500*sim.Millisecond)
			eng.AtFunc(at, func() { d.SoC.SubmitPinned(0, "w", 5_000_000, nil) })
		}
		eng.RunUntil(sim.Time(30 * sim.Second))
		h := sha256.New()
		for ci, ct := range d.ClusterTraces {
			for _, p := range ct.Freq.Points {
				fmt.Fprintf(h, "%d:%d:%d;", ci, p.At, p.OPPIndex)
			}
			for _, b := range d.SoC.Cluster(ci).BusyByOPP() {
				fmt.Fprintf(h, "%d,", b)
			}
			for _, c := range ct.Busy.Cum {
				fmt.Fprintf(h, "%d.", c)
			}
		}
		var peak float64
		if len(d.Zones) > 0 {
			peak = d.ClusterTraces[1].Temp.PeakC()
		}
		return fmt.Sprintf("%x", h.Sum(nil)), peak
	}

	plain, _ := run(false)
	zoned, peak := run(true)
	if plain != zoned {
		t.Fatal("record-only thermal zones perturbed the frequency/busy traces")
	}
	if peak <= 25 {
		t.Fatalf("record-only zones recorded no heating (peak %.1f°C)", peak)
	}
}
