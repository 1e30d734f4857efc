// Package wattio_test holds the benchmark harness that regenerates
// every table and figure in the paper's evaluation (run with
// `go test -bench=. -benchmem`), plus ablation benchmarks for the
// design choices DESIGN.md calls out and micro-benchmarks of the
// simulation substrate itself.
//
// Figure benchmarks report their headline quantities via b.ReportMetric
// so `bench_output.txt` doubles as a paper-vs-measured record.
package wattio_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"wattio/internal/calib"
	"wattio/internal/catalog"
	"wattio/internal/device"
	"wattio/internal/experiments"
	"wattio/internal/hdd"
	"wattio/internal/measure"
	"wattio/internal/scenario"
	"wattio/internal/serve"
	"wattio/internal/sim"
	"wattio/internal/ssd"
	"wattio/internal/telemetry"
	"wattio/internal/workload"
)

// benchScale keeps per-point cost low while letting every trend bind;
// the powerbench CLI runs the same experiments at full paper scale.
var benchScale = experiments.Scale{Runtime: 2 * time.Second, TotalBytes: 512 << 20, Seed: 42}

func BenchmarkTable1(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table1(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MinW, r.Label+"_min_W")
		b.ReportMetric(r.MaxW, r.Label+"_max_W")
	}
}

func BenchmarkFigure2(b *testing.B) {
	scale := benchScale
	scale.TotalBytes = 2 << 30 // the burst process needs a longer trace
	var f experiments.Fig2
	for i := 0; i < b.N; i++ {
		var err error
		f, err = experiments.Figure2(scale)
		if err != nil {
			b.Fatal(err)
		}
	}
	s1 := f.Violins["SSD1"]
	b.ReportMetric(s1.Mean, "SSD1_mean_W")
	b.ReportMetric(s1.Max-s1.Min, "SSD1_swing_W")
	b.ReportMetric(float64(f.Trace.Len()), "trace_samples")
}

func BenchmarkFigure3(b *testing.B) {
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Figure3(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		if s.Label == "ps1 qd64" || s.Label == "ps2 qd64" {
			b.ReportMetric(s.Y[len(s.Y)-1], s.Label[:3]+"_2MiB_W")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Figure4(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	by := map[string]experiments.Series{}
	for _, s := range series {
		by[s.Label] = s
	}
	last := len(by["seq write ps0"].Y) - 1
	b.ReportMetric(by["seq write ps1"].Y[last]/by["seq write ps0"].Y[last], "write_ps1_over_ps0")
	b.ReportMetric(by["seq write ps2"].Y[last]/by["seq write ps0"].Y[last], "write_ps2_over_ps0")
	b.ReportMetric(by["seq read ps2"].Y[last]/by["seq read ps0"].Y[last], "read_ps2_over_ps0")
}

func BenchmarkFigure5(b *testing.B) {
	var avg, p99 []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		avg, p99, err = experiments.Figure5(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	n := len(avg[2].Y) - 1
	b.ReportMetric(avg[2].Y[n], "ps2_avg_ratio_2MiB")
	b.ReportMetric(p99[2].Y[n], "ps2_p99_ratio_2MiB")
}

func BenchmarkFigure6(b *testing.B) {
	var avg, p99 []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		avg, p99, err = experiments.Figure6(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	n := len(avg[2].Y) - 1
	b.ReportMetric(avg[2].Y[n], "ps2_avg_ratio_2MiB")
	b.ReportMetric(p99[2].Y[n], "ps2_p99_ratio_2MiB")
}

func BenchmarkFigure7(b *testing.B) {
	var f experiments.Fig7
	for i := 0; i < b.N; i++ {
		var err error
		f, err = experiments.Figure7(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.EnterDone.Seconds()*1000, "enter_settled_ms")
	b.ReportMetric(f.ExitDone.Seconds()*1000, "exit_settled_ms")
}

func BenchmarkFigure8(b *testing.B) {
	var sweeps []experiments.DeviceSweep
	for i := 0; i < b.N; i++ {
		var err error
		sweeps, err = experiments.Figure8(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, d := range sweeps {
		n := len(d.X) - 1
		b.ReportMetric(d.PowerW[0]/d.PowerW[n], d.Device+"_power_4k_over_2m")
		b.ReportMetric(d.MBps[0]/d.MBps[n], d.Device+"_tput_4k_over_2m")
	}
}

func BenchmarkFigure9(b *testing.B) {
	var sweeps []experiments.DeviceSweep
	for i := 0; i < b.N; i++ {
		var err error
		sweeps, err = experiments.Figure9(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, d := range sweeps {
		n := len(d.X) - 1
		b.ReportMetric(d.PowerW[0]/d.PowerW[n], d.Device+"_power_qd1_over_qd128")
		b.ReportMetric(d.MBps[0]/d.MBps[n], d.Device+"_tput_qd1_over_qd128")
	}
}

func BenchmarkFigure10(b *testing.B) {
	var dr2, dr1 float64
	for i := 0; i < b.N; i++ {
		models, err := experiments.Figure10(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		dr2 = models["SSD2"].DynamicRangeFrac()
		dr1 = models["SSD1"].DynamicRangeFrac()
	}
	b.ReportMetric(dr2*100, "SSD2_dynrange_pct")
	b.ReportMetric(dr1*100, "SSD1_dynrange_pct")
}

func BenchmarkHeadline(b *testing.B) {
	var h experiments.Headline
	for i := 0; i < b.N; i++ {
		models, err := experiments.Figure10(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		h, err = experiments.ComputeHeadline(models)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(h.SSD2DynamicRange*100, "SSD2_dynrange_pct")
	b.ReportMetric(h.HDDThroughputFloor*100, "HDD_tput_floor_pct")
	b.ReportMetric(h.Curtailment.PowerReduction*100, "curtail_power_pct")
	b.ReportMetric((1-h.Curtailment.ThroughputKept)*100, "curtail_tput_pct")
}

func BenchmarkStandby(b *testing.B) {
	var rows []experiments.StandbyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.StandbyStudy(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if !r.Supported {
			continue
		}
		b.ReportMetric(r.SavedW, r.Device+"_saved_W")
		b.ReportMetric(r.EnterTook.Seconds()+r.ExitTook.Seconds(), r.Device+"_roundtrip_s")
	}
}

// BenchmarkFleetServe runs the fleet serving engine at the powerbench
// -exp fleet defaults (stepped budget, no faults) and reports the
// headline serving metrics:
//
//	go test -run '^$' -bench '^BenchmarkFleetServe$' -benchtime 1x .
func BenchmarkFleetServe(b *testing.B) {
	spec, err := experiments.FleetSpec(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	var rep *serve.Report
	for i := 0; i < b.N; i++ {
		rep, err = serve.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.ThroughputMBps, "fleet_MBps")
	b.ReportMetric(float64(rep.LatP99)/1e6, "fleet_p99_ms")
	b.ReportMetric(rep.AvgPowerW, "fleet_avg_W")
	b.ReportMetric(rep.WorstOverW, "fleet_worst_over_W")
	b.ReportMetric(float64(rep.Rejected), "fleet_rejected")
}

// BenchmarkMesoServe pair-runs a 10k-device steady fleet with the
// mesoscale tier off and then on, and reports the wall-clock speedup,
// the dispatched-event reduction, and the energy agreement between the
// two representations. It fails through mesoGate on the deterministic
// quantities; the speedup is host-dependent and only reported. The
// arrival rate is turned down from the builtin scenario's so the pure
// event-driven baseline stays affordable at this fleet size:
//
//	go test -run '^$' -bench '^BenchmarkMesoServe$' -benchtime 1x -timeout 30m .
func BenchmarkMesoServe(b *testing.B) {
	sp := scenario.BuiltIn("meso")
	sp.Fleet.Size = 10000
	sp.Fleet.RateIOPS = 500
	spec, err := sp.ServeSpec(2 * time.Second)
	if err != nil {
		b.Fatal(err)
	}
	base := spec
	base.Meso = false
	var pure, hyb *serve.Report
	var pureNS, hybNS float64
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if pure, err = serve.Run(base); err != nil {
			b.Fatal(err)
		}
		pureNS = float64(time.Since(t0))
		t0 = time.Now()
		if hyb, err = serve.Run(spec); err != nil {
			b.Fatal(err)
		}
		hybNS = float64(time.Since(t0))
	}
	diff := (hyb.AvgPowerW - pure.AvgPowerW) / pure.AvgPowerW
	if diff < 0 {
		diff = -diff
	}
	driftOK := 0.0
	if hyb.MesoDriftOK {
		driftOK = 1
	}
	ratio := float64(pure.Events) / float64(hyb.Events)
	b.ReportMetric(pureNS/hybNS, "meso_speedup_x")
	b.ReportMetric(ratio, "meso_event_ratio_x")
	b.ReportMetric(diff*100, "meso_energy_diff_pct")
	b.ReportMetric(float64(hyb.MesoParkedPeriods), "meso_parked_periods")
	b.ReportMetric(driftOK, "meso_drift_ok")
	if err := mesoGate(ratio, hyb.MesoDriftOK); err != nil {
		b.Fatalf("meso: %v", err)
	}
}

// mesoGate is BenchmarkMesoServe's acceptance: at least a 2x
// dispatched-event reduction and a green sentinel drift probe.
func mesoGate(eventRatio float64, driftOK bool) error {
	if eventRatio < 2 {
		return fmt.Errorf("event reduction %.2fx under the 2x gate", eventRatio)
	}
	if !driftOK {
		return errors.New("sentinel drift probe failed")
	}
	return nil
}

// BenchmarkCalib calibrates every catalog class the calib scenario
// covers, then pair-runs that scenario's mixed fleet with mechanistic
// and fitted devices, and reports the worst cross-validated fit quality
// plus the fleet-level power and throughput disagreement. It fails
// through calibGate on the fit and agreement thresholds; fit wall-clock
// is host-dependent and only reported:
//
//	go test -run '^$' -bench '^BenchmarkCalib$' -benchtime 1x -timeout 30m .
func BenchmarkCalib(b *testing.B) {
	sp := scenario.BuiltIn("calib")
	worstR2, worstMAPE := 1.0, 0.0
	var fitted, mech *serve.Report
	var fitNS float64
	for i := 0; i < b.N; i++ {
		worstR2, worstMAPE = 1.0, 0.0
		t0 := time.Now()
		for _, p := range sp.Fleet.Profiles {
			f, err := calib.FitClass(p, calib.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if f.R2 < worstR2 {
				worstR2 = f.R2
			}
			if f.MAPE > worstMAPE {
				worstMAPE = f.MAPE
			}
		}
		fitNS = float64(time.Since(t0))
		fittedSpec, err := sp.ServeSpec(sp.Runtime.D())
		if err != nil {
			b.Fatal(err)
		}
		mechSpec := fittedSpec
		mechSpec.Fitted = nil
		if mech, err = serve.Run(mechSpec); err != nil {
			b.Fatal(err)
		}
		if fitted, err = serve.Run(fittedSpec); err != nil {
			b.Fatal(err)
		}
	}
	powErr := (fitted.AvgPowerW - mech.AvgPowerW) / mech.AvgPowerW
	if powErr < 0 {
		powErr = -powErr
	}
	tputErr := (fitted.ThroughputMBps - mech.ThroughputMBps) / mech.ThroughputMBps
	if tputErr < 0 {
		tputErr = -tputErr
	}
	b.ReportMetric(worstR2, "calib_worst_r2")
	b.ReportMetric(worstMAPE*100, "calib_worst_mape_pct")
	b.ReportMetric(powErr*100, "calib_fleet_power_diff_pct")
	b.ReportMetric(tputErr*100, "calib_fleet_tput_diff_pct")
	b.ReportMetric(fitNS/1e9, "calib_fit_s")
	if err := calibGate(worstR2, worstMAPE*100, powErr*100); err != nil {
		b.Fatalf("calib: %v", err)
	}
}

// calibGate is BenchmarkCalib's acceptance: every class fits with a
// cross-validated R² of at least 0.98 and a MAPE of at most 5%, and the
// fitted fleet's average power is within 5% of the mechanistic one.
func calibGate(worstR2, worstMAPEPct, powerDiffPct float64) error {
	if worstR2 < 0.98 {
		return fmt.Errorf("worst CV R2 %.4f under the 0.98 gate", worstR2)
	}
	if worstMAPEPct > 5 {
		return fmt.Errorf("worst CV MAPE %.2f%% over the 5%% gate", worstMAPEPct)
	}
	if powerDiffPct > 5 {
		return fmt.Errorf("fleet power disagreement %.2f%% over the 5%% gate", powerDiffPct)
	}
	return nil
}

// --- Ablations -----------------------------------------------------------

// capped2MiBQD1 measures the qd1 2MiB random-write p99 latency ratio
// (ps2/ps0) for a modified SSD2 configuration.
func capped2MiBQD1(b *testing.B, mod func(*ssd.Config)) float64 {
	b.Helper()
	lat := func(ps int) time.Duration {
		cfg := catalog.SSD2Config()
		if mod != nil {
			mod(&cfg)
		}
		eng := sim.NewEngine()
		dev, err := ssd.New(cfg, eng, sim.NewRNG(7))
		if err != nil {
			b.Fatal(err)
		}
		if err := dev.SetPowerState(ps); err != nil {
			b.Fatal(err)
		}
		res := workload.Run(eng, dev, workload.Job{
			Op: device.OpWrite, Pattern: workload.Rand, BS: 2 << 20, Depth: 1,
			Runtime: 5 * time.Second, TotalBytes: 2 << 30,
		}, sim.NewRNG(7))
		return res.LatP99
	}
	return float64(lat(2)) / float64(lat(0))
}

// BenchmarkAblationThrottleQuantum shows that the firmware throttle
// granularity — not the energy budget — creates the paper's tail-latency
// spikes: with ideally smooth throttling the p99 inflation collapses.
func BenchmarkAblationThrottleQuantum(b *testing.B) {
	for _, q := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond} {
		q := q
		b.Run(q.String(), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio = capped2MiBQD1(b, func(c *ssd.Config) { c.ThrottleQuantum = q })
			}
			b.ReportMetric(ratio, "p99_ratio")
		})
	}
}

// BenchmarkAblationCapBurst varies the regulator's burst horizon: short
// horizons track the cap tightly; long horizons let the device overshoot
// early in the averaging window.
func BenchmarkAblationCapBurst(b *testing.B) {
	for _, burst := range []time.Duration{5 * time.Millisecond, 25 * time.Millisecond, 250 * time.Millisecond, time.Second} {
		burst := burst
		b.Run(burst.String(), func(b *testing.B) {
			var avgW float64
			for i := 0; i < b.N; i++ {
				cfg := catalog.SSD2Config()
				cfg.CapBurst = burst
				eng := sim.NewEngine()
				dev, err := ssd.New(cfg, eng, sim.NewRNG(7))
				if err != nil {
					b.Fatal(err)
				}
				if err := dev.SetPowerState(2); err != nil {
					b.Fatal(err)
				}
				e0, t0 := dev.EnergyJ(), eng.Now()
				workload.Run(eng, dev, workload.Job{
					Op: device.OpWrite, Pattern: workload.Seq, BS: 256 << 10, Depth: 64,
					Runtime: 2 * time.Second, TotalBytes: 1 << 30,
				}, sim.NewRNG(7))
				avgW = (dev.EnergyJ() - e0) / (eng.Now() - t0).Seconds()
			}
			b.ReportMetric(avgW, "avg_W_at_10W_cap")
		})
	}
}

// BenchmarkAblationNCQ quantifies what command queuing buys the HDD on
// random IO — the reason its Fig. 8 line is flat rather than abysmal.
func BenchmarkAblationNCQ(b *testing.B) {
	for _, ncq := range []bool{true, false} {
		name := "ncq"
		if !ncq {
			name = "fifo"
		}
		b.Run(name, func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				cfg := catalog.HDDConfig()
				cfg.DisableNCQ = !ncq
				eng := sim.NewEngine()
				dev, err := hdd.New(cfg, eng, sim.NewRNG(7))
				if err != nil {
					b.Fatal(err)
				}
				res := workload.Run(eng, dev, workload.Job{
					Op: device.OpRead, Pattern: workload.Rand, BS: 64 << 10, Depth: 64,
					Runtime: 5 * time.Second, TotalBytes: 128 << 20,
				}, sim.NewRNG(7))
				mbps = res.BandwidthMBps
			}
			b.ReportMetric(mbps, "MBps")
		})
	}
}

// BenchmarkAblationWriteBuffer varies SSD2's write-buffer size: the
// buffer sets how long a capped device can hide throttling from the
// host before latency surfaces.
func BenchmarkAblationWriteBuffer(b *testing.B) {
	for _, mib := range []int64{16, 64, 256} {
		mib := mib
		b.Run(byteLabel(mib), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio = capped2MiBQD1(b, func(c *ssd.Config) { c.BufferBytes = mib << 20 })
			}
			b.ReportMetric(ratio, "p99_ratio")
		})
	}
}

// BenchmarkAblationMeasurementNoise runs the rig against a known load
// with and without amplifier noise, reporting relative error — the <1%
// claim should not depend on averaging away a broken chain.
func BenchmarkAblationMeasurementNoise(b *testing.B) {
	for _, noisy := range []bool{true, false} {
		name := "noisy"
		if !noisy {
			name = "ideal"
		}
		b.Run(name, func(b *testing.B) {
			var relErr float64
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				cfg := measure.DefaultRigConfig(12)
				if !noisy {
					cfg.AmpNoiseV, cfg.AmpGainErrPct, cfg.AmpOffsetV, cfg.ShuntTolPPM = 0, 0, 0, 0
				}
				rig, err := measure.NewRig(eng, sim.NewRNG(3), constSource(8.19), cfg)
				if err != nil {
					b.Fatal(err)
				}
				rig.Start()
				eng.RunUntil(eng.Now() + 2*time.Second)
				rig.Stop()
				got := rig.Trace().Mean()
				relErr = abs(got-8.19) / 8.19 * 100
			}
			b.ReportMetric(relErr, "rel_err_pct")
		})
	}
}

// --- Substrate micro-benchmarks ------------------------------------------

func BenchmarkEngineEventThroughput(b *testing.B) {
	eng := sim.NewEngine()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			eng.After(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	eng.After(time.Microsecond, tick)
	eng.Run()
}

func BenchmarkSSDRandomRead4K(b *testing.B) {
	eng := sim.NewEngine()
	dev := catalog.NewSSD2(eng, sim.NewRNG(1))
	rng := sim.NewRNG(2)
	done := 0
	b.ResetTimer()
	var issue func()
	issue = func() {
		if done >= b.N {
			return
		}
		off := rng.Int64N(dev.CapacityBytes()/4096) * 4096
		dev.Submit(device.Request{Op: device.OpRead, Offset: off, Size: 4096}, func() {
			done++
			issue()
		})
	}
	for i := 0; i < 64; i++ {
		issue()
	}
	for done < b.N && eng.Step() {
	}
}

func BenchmarkSSDSequentialWrite1M(b *testing.B) {
	eng := sim.NewEngine()
	dev := catalog.NewSSD2(eng, sim.NewRNG(1))
	done := 0
	next := int64(0)
	b.ResetTimer()
	var issue func()
	issue = func() {
		if done >= b.N {
			return
		}
		off := next % (dev.CapacityBytes() - 1<<20)
		next += 1 << 20
		dev.Submit(device.Request{Op: device.OpWrite, Offset: off, Size: 1 << 20}, func() {
			done++
			issue()
		})
	}
	for i := 0; i < 16; i++ {
		issue()
	}
	for done < b.N && eng.Step() {
	}
}

func BenchmarkRigSampleChain(b *testing.B) {
	eng := sim.NewEngine()
	rig, err := measure.NewRig(eng, sim.NewRNG(3), constSource(8), measure.DefaultRigConfig(12))
	if err != nil {
		b.Fatal(err)
	}
	rig.Start()
	b.ResetTimer()
	eng.RunUntil(time.Duration(b.N) * time.Millisecond)
	b.StopTimer()
	rig.Stop()
}

func BenchmarkFrameEncodeDecode(b *testing.B) {
	codes := make([]int32, 16)
	for i := range codes {
		codes[i] = int32(i * 100000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire := measure.EncodeFrame(uint16(i), codes)
		if _, _, err := measure.DecodeFrame(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// --- helpers --------------------------------------------------------------

type constSource float64

func (c constSource) InstantPower() float64 { return float64(c) }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func byteLabel(mib int64) string {
	return fmt.Sprintf("%dMiB", mib)
}

// BenchmarkAblationHostLink reproduces the paper's testbed caveat ("This
// computer supports PCIe 3, which has limited bandwidth ... read
// bandwidth cannot always be saturated"): on a PCIe 4 host, SSD1's
// sequential reads rise past the PCIe 3 ceiling while write power
// characteristics barely move.
func BenchmarkAblationHostLink(b *testing.B) {
	for _, gen := range []struct {
		name string
		mbps float64
	}{{"pcie3", 3550}, {"pcie4", 7000}} {
		gen := gen
		b.Run(gen.name, func(b *testing.B) {
			var readBW float64
			for i := 0; i < b.N; i++ {
				cfg := catalog.SSD1Config()
				cfg.LinkMBps = gen.mbps
				eng := sim.NewEngine()
				dev, err := ssd.New(cfg, eng, sim.NewRNG(7))
				if err != nil {
					b.Fatal(err)
				}
				res := workload.Run(eng, dev, workload.Job{
					Op: device.OpRead, Pattern: workload.Seq, BS: 1 << 20, Depth: 64,
					Runtime: 2 * time.Second, TotalBytes: 1 << 30,
				}, sim.NewRNG(7))
				readBW = res.BandwidthMBps
			}
			b.ReportMetric(readBW, "seqread_MBps")
		})
	}
}

// BenchmarkScaleServe runs the group-parked hybrid tier at 10⁴, 10⁵,
// and 10⁶ devices under the stepped curtail-and-recover budget (which
// splits every cohort across hull levels, exercising the bucket-shaped
// control scan). Each point reports peak live heap per device,
// allocations per device, wall-clock seconds, and the plan-slot count —
// the evidence that parked work scales with buckets, not lanes. The
// million-device point fails through perDeviceGate, and the series
// through planSlotsGate. -short keeps only the 10⁴ point, sized for CI
// smoke runs:
//
//	go test -run '^$' -bench '^BenchmarkScaleServe$' -benchtime 1x -timeout 30m .
func BenchmarkScaleServe(b *testing.B) {
	slots := map[int]float64{}
	for _, size := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			if testing.Short() && size > 10_000 {
				b.Skip("large scale points skipped in -short mode")
			}
			sp := scenario.BuiltIn("meso")
			sp.Fleet.Size = size
			sp.Fleet.RateIOPS = 500
			sp.Fleet.Budget = "" // stepped default: forces a bucket split per step
			sp.Fleet.Meso.GroupMin = 64
			sp.Fleet.Meso.Probes = 2
			spec, err := sp.ServeSpec(2 * time.Second)
			if err != nil {
				b.Fatal(err)
			}
			var rep *serve.Report
			var wallNS float64
			var peakAlloc, allocs uint64
			for i := 0; i < b.N; i++ {
				runtime.GC()
				var m0 runtime.MemStats
				runtime.ReadMemStats(&m0)
				mw := telemetry.WatchMem(20 * time.Millisecond)
				t0 := time.Now()
				if rep, err = serve.Run(spec); err != nil {
					b.Fatal(err)
				}
				wallNS = float64(time.Since(t0))
				peakAlloc, _ = mw.Stop()
				var m1 runtime.MemStats
				runtime.ReadMemStats(&m1)
				allocs = m1.Mallocs - m0.Mallocs
			}
			if rep.MesoGroupLanes == 0 || rep.MesoGroupBuckets == 0 {
				b.Fatalf("nothing virtualized: lanes=%d buckets=%d", rep.MesoGroupLanes, rep.MesoGroupBuckets)
			}
			if !rep.CapOK || !rep.TrackOK || !rep.MesoDriftOK {
				b.Fatalf("gates failed at n=%d: cap=%v track=%v drift=%v (worst %.4f)",
					size, rep.CapOK, rep.TrackOK, rep.MesoDriftOK, rep.MesoWorstDriftFrac)
			}
			b.ReportMetric(float64(peakAlloc)/float64(size), "scale_bytes_per_device")
			b.ReportMetric(float64(allocs)/float64(size), "scale_allocs_per_device")
			b.ReportMetric(wallNS/1e9, "scale_wall_s")
			b.ReportMetric(float64(rep.MesoGroupScans), "scale_plan_slots")
			b.ReportMetric(float64(rep.MesoGroupBuckets), "scale_buckets")
			b.ReportMetric(float64(rep.MesoGroupLanes), "scale_virtual_lanes")
			slots[size] = float64(rep.MesoGroupScans)
			if size == 1_000_000 {
				if err := perDeviceGate(float64(peakAlloc)/float64(size), float64(allocs)/float64(size)); err != nil {
					b.Fatalf("n=%d: %v", size, err)
				}
			}
		})
	}
	small, okS := slots[10_000]
	large, okL := slots[1_000_000]
	if okS && okL {
		if err := planSlotsGate(small, large); err != nil {
			b.Fatal(err)
		}
	}
}

// perDeviceGate is the memory acceptance of the largest scale and churn
// points: peak live heap under 10 KiB per device and under one
// allocation per device (materialization costs per cohort or probe,
// not per member).
func perDeviceGate(bytesPerDevice, allocsPerDevice float64) error {
	if bytesPerDevice >= 10240 {
		return fmt.Errorf("%.0f bytes/device over the 10 KiB gate", bytesPerDevice)
	}
	if allocsPerDevice >= 1 {
		return fmt.Errorf("%.3f allocs/device over the gate of 1", allocsPerDevice)
	}
	return nil
}

// planSlotsGate is BenchmarkScaleServe's series acceptance: plan slots
// at 10⁶ devices at most twice those at 10⁴, so the control scan stays
// bucket-shaped instead of growing with the fleet.
func planSlotsGate(slots1e4, slots1e6 float64) error {
	if slots1e6 > 2*slots1e4 {
		return fmt.Errorf("plan slots grew with fleet size (%.0f at 10^4 vs %.0f at 10^6): scan is not bucket-shaped", slots1e4, slots1e6)
	}
	return nil
}

// BenchmarkChurnServe runs the lane-lifecycle tier at fleet scale: a
// group-parked 10⁵-device fleet under a diurnal rate schedule scales
// out ~10% of its groups for the peak (with a real warm-up cost) and
// drains them back after it. Each point reports wall-clock seconds,
// peak live heap and allocations per device, and the recovery
// latencies — the evidence that membership churn rides the bucket
// accounting instead of re-materializing the fleet. The 10⁵ point fails
// through perDeviceGate. -short keeps only the 10⁴ point, sized for CI
// smoke runs:
//
//	go test -run '^$' -bench '^BenchmarkChurnServe$' -benchtime 1x -timeout 30m .
func BenchmarkChurnServe(b *testing.B) {
	for _, size := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			if testing.Short() && size > 10_000 {
				b.Skip("large churn points skipped in -short mode")
			}
			sp := scenario.BuiltIn("churn")
			sp.Fleet.Size = size
			sp.Fleet.Meso.GroupMin = 64
			sp.Fleet.Meso.Probes = 2
			sp.Fleet.Arrivals = []scenario.RateStepSpec{
				{At: 0, RateIOPS: 500},
				{At: scenario.Duration(1500 * time.Millisecond), RateIOPS: 250},
				{At: scenario.Duration(3 * time.Second), RateIOPS: 500},
			}
			sp.Fleet.Churn = []scenario.ChurnEventSpec{
				{At: scenario.Duration(time.Second), Profile: "SSD2", Add: size / 10, Warmup: scenario.Duration(200 * time.Millisecond)},
				{At: scenario.Duration(2500 * time.Millisecond), Profile: "SSD2", Remove: size / 10},
			}
			spec, err := sp.ServeSpec(sp.Runtime.D())
			if err != nil {
				b.Fatal(err)
			}
			var rep *serve.Report
			var wallNS float64
			var peakAlloc, allocs uint64
			for i := 0; i < b.N; i++ {
				runtime.GC()
				var m0 runtime.MemStats
				runtime.ReadMemStats(&m0)
				mw := telemetry.WatchMem(20 * time.Millisecond)
				t0 := time.Now()
				if rep, err = serve.Run(spec); err != nil {
					b.Fatal(err)
				}
				wallNS = float64(time.Since(t0))
				peakAlloc, _ = mw.Stop()
				var m1 runtime.MemStats
				runtime.ReadMemStats(&m1)
				allocs = m1.Mallocs - m0.Mallocs
			}
			if rep.ChurnAdds != size/10 || rep.ChurnRemoves != size/10 {
				b.Fatalf("churn counts: adds %d removes %d, want %d each", rep.ChurnAdds, rep.ChurnRemoves, size/10)
			}
			if !rep.CapOK || !rep.TrackOK || !rep.MesoDriftOK {
				b.Fatalf("gates failed at n=%d: cap=%v track=%v drift=%v (worst %.4f)",
					size, rep.CapOK, rep.TrackOK, rep.MesoDriftOK, rep.MesoWorstDriftFrac)
			}
			if err := drainGate(rep.ChurnDrainsBegun, rep.ChurnDrains, rep.DrainMax, spec.Horizon); err != nil {
				b.Fatalf("n=%d: %v", size, err)
			}
			b.ReportMetric(float64(peakAlloc)/float64(size), "churn_bytes_per_device")
			b.ReportMetric(float64(allocs)/float64(size), "churn_allocs_per_device")
			b.ReportMetric(wallNS/1e9, "churn_wall_s")
			b.ReportMetric(float64(rep.ChurnAdds), "churn_adds")
			b.ReportMetric(float64(rep.ChurnRemoves), "churn_removes")
			b.ReportMetric(float64(rep.WarmupP50)/1e6, "churn_warmup_p50_ms")
			b.ReportMetric(float64(rep.ChurnDrains), "churn_drains")
			b.ReportMetric(float64(rep.ChurnDrainsBegun), "churn_drains_begun")
			b.ReportMetric(float64(rep.DrainMax)/1e6, "churn_drain_max_ms")
			b.ReportMetric(float64(rep.MesoGroupLanes), "churn_virtual_lanes")
			if size == 100_000 {
				if err := perDeviceGate(float64(peakAlloc)/float64(size), float64(allocs)/float64(size)); err != nil {
					b.Fatalf("n=%d: %v", size, err)
				}
			}
		})
	}
}

// drainGate is BenchmarkChurnServe's drain acceptance: every resident
// drain a removal began completed, and inside the horizon. DrainMax
// alone only sees completed drains, so a drain that never finished
// would pass it.
func drainGate(begun, completed int, drainMax, horizon time.Duration) error {
	if completed != begun {
		return fmt.Errorf("%d of %d resident drains never completed", begun-completed, begun)
	}
	if drainMax >= horizon {
		return fmt.Errorf("drain recovery %v never completed inside %v", drainMax, horizon)
	}
	return nil
}

// faultFracs is BenchmarkFaultServe's fault-fraction ladder.
var faultFracs = []float64{0, 0.001, 0.01, 0.05}

// BenchmarkFaultServe is the fault-fraction ladder on the group tier: a
// 10⁵-device fleet (powerbench -exp fleet -fleet 100000 -meso
// -mesogroup 64 -mesoprobes 2 -rate 500 -fleetfaults F) at each
// fraction F, reporting wall-clock seconds, dispatched events, and peak
// live heap per device. The faulted members are what the kernel still
// simulates, so the series is the fault-residency cost curve; the
// deterministic events(1%)/events(0%) ratio fails through
// faultEventsGate:
//
//	go test -run '^$' -bench '^BenchmarkFaultServe$' -benchtime 1x -timeout 30m .
func BenchmarkFaultServe(b *testing.B) {
	events := map[float64]float64{}
	for _, frac := range faultFracs {
		b.Run(fmt.Sprintf("faults=%g", frac), func(b *testing.B) {
			sp := scenario.BuiltIn("fleet")
			sp.Fleet.Size = 100_000
			sp.Fleet.RateIOPS = 500
			sp.Fleet.FaultFrac = frac
			sp.Fleet.Meso = &scenario.MesoSpec{Enable: true, GroupMin: 64, Probes: 2}
			spec, err := sp.ServeSpec(2 * time.Second)
			if err != nil {
				b.Fatal(err)
			}
			var rep *serve.Report
			var wallNS float64
			var peakAlloc uint64
			for i := 0; i < b.N; i++ {
				runtime.GC()
				mw := telemetry.WatchMem(20 * time.Millisecond)
				t0 := time.Now()
				if rep, err = serve.Run(spec); err != nil {
					b.Fatal(err)
				}
				wallNS = float64(time.Since(t0))
				peakAlloc, _ = mw.Stop()
			}
			if (frac > 0) != (rep.Faulted > 0) || rep.MesoGroupLanes == 0 {
				b.Fatalf("faults=%g: %d faulted, %d virtual lanes", frac, rep.Faulted, rep.MesoGroupLanes)
			}
			if !rep.CapOK || !rep.TrackOK || rep.Offered != rep.Admitted+rep.Rejected {
				b.Fatalf("faults=%g: cap=%v track=%v offered %d admitted %d rejected %d",
					frac, rep.CapOK, rep.TrackOK, rep.Offered, rep.Admitted, rep.Rejected)
			}
			b.ReportMetric(wallNS/1e9, "fault_wall_s")
			b.ReportMetric(float64(rep.Events), "fault_events")
			b.ReportMetric(float64(peakAlloc)/float64(spec.Size), "fault_bytes_per_device")
			b.ReportMetric(float64(rep.Faulted), "fault_devices")
			events[frac] = float64(rep.Events)
		})
	}
	clean, okC := events[0]
	faulted, okF := events[0.01]
	if okC && okF {
		if err := faultEventsGate(clean, faulted); err != nil {
			b.Fatal(err)
		}
	}
}

// faultEventsGate is BenchmarkFaultServe's series acceptance: at 1%
// faults the fleet dispatches at most 30× the fault-free events. A
// faulted member is simulated only for its fault span, about a quarter
// of the run (≈20× measured); a fleet that keeps every faulted member
// resident for the whole run dispatches ≈63×.
func faultEventsGate(events0, events1pct float64) error {
	if events1pct > 30*events0 {
		return fmt.Errorf("1%% faults dispatched %.0f events, %.1fx the fault-free %.0f (gate 30x): faulted members are resident beyond their fault spans",
			events1pct, events1pct/events0, events0)
	}
	return nil
}

// TestBenchGates proves every benchmark gate can fail: each passes at
// its threshold and fails just over it, without running the fleets.
func TestBenchGates(t *testing.T) {
	for _, tc := range []struct {
		name       string
		pass, fail error
	}{
		{"meso event ratio", mesoGate(2, true), mesoGate(1.99, true)},
		{"meso drift probe", mesoGate(2, true), mesoGate(10, false)},
		{"bytes per device", perDeviceGate(10239, 0), perDeviceGate(10240, 0)},
		{"allocs per device", perDeviceGate(0, 0.999), perDeviceGate(0, 1)},
		{"plan slots", planSlotsGate(96, 192), planSlotsGate(96, 193)},
		{"calib R2", calibGate(0.98, 5, 5), calibGate(0.9799, 5, 5)},
		{"calib MAPE", calibGate(0.98, 5, 5), calibGate(0.98, 5.01, 5)},
		{"calib power diff", calibGate(0.98, 5, 5), calibGate(0.98, 5, 5.01)},
		{"drains begun", drainGate(3, 3, time.Second, 2*time.Second), drainGate(4, 3, time.Second, 2*time.Second)},
		{"drain inside horizon", drainGate(0, 0, 0, 2*time.Second), drainGate(1, 1, 2*time.Second, 2*time.Second)},
		{"fault events ratio", faultEventsGate(1e6, 30e6), faultEventsGate(1e6, 30.01e6)},
	} {
		if tc.pass != nil {
			t.Errorf("%s: failed at its threshold: %v", tc.name, tc.pass)
		}
		if tc.fail == nil {
			t.Errorf("%s: passed just over its threshold", tc.name)
		}
	}
}
