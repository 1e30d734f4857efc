package main

import (
	"sort"
	"time"

	"wattio/internal/scenario"
)

const mib = 1 << 20

// seedMean returns, over the runs keep selects, the mean across
// scenarios of each scenario's median of f. A scenario's inputs move
// some metrics (fault draws, drift), so averaging the per-scenario
// medians gives every generated scenario equal weight however many
// runs each got.
func seedMean(results []*result, keep func(*result) bool, f func(*result) float64) float64 {
	bySeed := make(map[uint64][]float64)
	var seeds []uint64
	for _, r := range results {
		if r.err != nil || !keep(r) {
			continue
		}
		if _, ok := bySeed[r.seed]; !ok {
			seeds = append(seeds, r.seed)
		}
		bySeed[r.seed] = append(bySeed[r.seed], f(r))
	}
	if len(seeds) == 0 {
		return 0
	}
	var sum float64
	for _, s := range seeds {
		sum += median(bySeed[s])
	}
	return sum / float64(len(seeds))
}

// median returns the median of xs, 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func isSetup(r *result) bool   { return r.setup }
func isTimed(r *result) bool   { return !r.setup && !r.traced }
func isTraced(r *result) bool  { return r.traced }
func isFullRun(r *result) bool { return !r.setup }

// endToEndMetrics are what a user of the simulator sees: host time,
// memory and the analytic tier's fidelity, from untraced runs only.
func endToEndMetrics(results []*result) []metric {
	m := func(name, unit string, keep func(*result) bool, f func(*result) float64) metric {
		return metric{name: name, unit: unit, value: seedMean(results, keep, f)}
	}
	return []metric{
		m("setup_s", "s", isSetup, func(r *result) float64 { return (r.buildDur + r.wall).Seconds() }),
		m("wall_s", "s", isTimed, func(r *result) float64 { return r.wall.Seconds() }),
		m("cpu_s", "s", isTimed, func(r *result) float64 { return r.cpu.Seconds() }),
		// Simulated device-seconds of serving per host second. It uses
		// the horizon, not Report.SimulatedDur: the post-horizon drain
		// lets idle device timers jump the clock (to about 10 s on
		// kernel-mixed), so SimulatedDur tracks a drain artifact.
		m("sim_dev_s_per_s", "1/s", isTimed, func(r *result) float64 {
			return float64(r.rep.Devices) * r.horizon.Seconds() / r.wall.Seconds()
		}),
		m("peak_heap_mib", "MiB", isTimed, func(r *result) float64 { return float64(r.peakHeap) / mib }),
		m("alloc_mib", "MiB", isTimed, func(r *result) float64 { return float64(r.alloc) / mib }),
		m("fidelity_pct", "%", isTimed, func(r *result) float64 { return 100 * (1 - r.rep.MesoWorstDriftFrac) }),
	}
}

// layerMetrics are the per-module numbers: the report's deterministic
// counters, runtime/metrics deltas of untraced runs, and the profiled
// runs' CPU shares and allocated bytes.
func layerMetrics(specs []genSpec, results []*result, cpu, alloc attribution) []metric {
	m := func(name, unit string, keep func(*result) bool, f func(*result) float64) metric {
		return metric{name: name, unit: unit, value: seedMean(results, keep, f)}
	}
	count := func(name string, f func(r *result) float64) metric {
		return m(name, "count", isFullRun, f)
	}
	cpuFrac := func(name string, v int64) metric {
		return metric{name: name, unit: "frac", value: ratio(float64(v), float64(cpu.total))}
	}
	traced := 0
	for _, r := range results {
		if r.err == nil && r.traced {
			traced++
		}
	}
	allocMiB := func(name string, v int64) metric {
		return metric{name: name, unit: "MiB", value: ratio(float64(v), float64(traced)) / mib}
	}
	return []metric{
		m("scenario.build_ms", "ms", isFullRun, func(r *result) float64 { return r.buildDur.Seconds() * 1e3 }),
		cpuFrac("scenario.cpu_frac", cpu.byModule["scenario"]),
		count("sim.events", func(r *result) float64 { return float64(r.rep.Events) }),
		m("sim.ns_per_event", "ns", isTimed, func(r *result) float64 {
			return ratio(float64(r.wall.Nanoseconds()), float64(r.rep.Events))
		}),
		cpuFrac("sim.cpu_frac", cpu.byModule["sim"]),
		cpuFrac("devices.cpu_frac", cpu.byModule["devices"]),
		cpuFrac("power.cpu_frac", cpu.bySlice["power"]),
		cpuFrac("workload.cpu_frac", cpu.byModule["workload"]),
		cpuFrac("serve.cpu_frac", cpu.byModule["serve"]),
		allocMiB("serve.merge_alloc_mib", alloc.bySlice["serve.merge"]),
		allocMiB("serve.churn_alloc_mib", alloc.bySlice["serve.churn"]),
		count("serve.completions", func(r *result) float64 { return float64(r.rep.Completed) }),
		m("serve.rejected_frac", "frac", isFullRun, func(r *result) float64 {
			return ratio(float64(r.rep.Rejected), float64(r.rep.Offered))
		}),
		m("serve.lat_p99_ms", "ms", isFullRun, func(r *result) float64 { return float64(r.rep.LatP99) / float64(time.Millisecond) }),
		count("meso.resident_lanes", func(r *result) float64 {
			return float64(r.rep.Groups + r.rep.ChurnAdds - r.rep.MesoGroupLanes)
		}),
		m("meso.parked_frac", "frac", isFullRun, func(r *result) float64 {
			return ratio(float64(r.rep.MesoParkedPeriods), lanePeriods(specFor(specs, r.seed), r))
		}),
		count("meso.dehydrations", func(r *result) float64 { return float64(r.rep.MesoDehydrations) }),
		count("meso.group_buckets", func(r *result) float64 { return float64(r.rep.MesoGroupBuckets) }),
		count("meso.group_scans", func(r *result) float64 { return float64(r.rep.MesoGroupScans) }),
		m("meso.drift_pct", "%", isFullRun, func(r *result) float64 { return 100 * r.rep.MesoWorstDriftFrac }),
		cpuFrac("meso.cpu_frac", cpu.byModule["meso"]),
		count("plan.replans", func(r *result) float64 { return float64(r.rep.Replans) }),
		count("plan.infeasible", func(r *result) float64 { return float64(r.rep.Infeasible) }),
		cpuFrac("plan.cpu_frac", cpu.byModule["plan"]),
		allocMiB("plan.alloc_mib", alloc.byModule["plan"]),
		count("adaptive.failovers", func(r *result) float64 { return float64(r.rep.Failovers) }),
		cpuFrac("runtime.cpu_frac", cpu.byModule["runtime"]),
		m("gc.cpu_frac", "frac", isTimed, func(r *result) float64 { return ratio(r.gcCPU, r.cpu.Seconds()) }),
		m("gc.cycles", "count", isTimed, func(r *result) float64 { return float64(r.gcCycles) }),
		{name: "trace.overhead_frac", unit: "frac", value: ratio(
			seedMean(results, isTraced, func(r *result) float64 { return r.wall.Seconds() }),
			seedMean(results, isTimed, func(r *result) float64 { return r.wall.Seconds() })) - 1},
	}
}

// lanePeriods is the number of lane × control-period units the run
// served: each control interval counts the lanes live at its start,
// following the spec's churn schedule.
func lanePeriods(sp *scenario.Spec, r *result) float64 {
	var total float64
	for _, iv := range r.rep.Intervals {
		live := r.rep.Groups
		if sp != nil && sp.Fleet != nil {
			for _, ev := range sp.Fleet.Churn {
				if ev.At.D() <= iv.Start {
					live += ev.Add - ev.Remove
				}
			}
		}
		total += float64(live)
	}
	return total
}
