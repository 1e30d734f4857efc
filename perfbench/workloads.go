package main

import (
	"fmt"
	"time"

	"wattio/internal/scenario"
)

// A workload is one generated fleet scenario plus the guards that prove
// a run still exercised the layers the workload was chosen for. Why
// each exists is in BENCHMARK.json and README.md.
type workload struct {
	name string
	// gen builds the scenario for a seed at a size scale: scale 1 is the
	// benchmark's size, and the self-tests pass tiny fractions.
	gen func(seed uint64, scale float64) *scenario.Spec
	// guards are the workload's exercise checks beyond the common ones.
	guards func(sp *scenario.Spec, r *result) []string
}

var workloads = []workload{
	{
		name: "kernel-mixed",
		gen:  genKernelMixed,
		guards: func(_ *scenario.Spec, r *result) []string {
			var bad []string
			rep := r.rep
			if rep.Failovers == 0 {
				bad = append(bad, "no failovers")
			}
			if rep.Replans == 0 {
				bad = append(bad, "no re-plans")
			}
			if rep.Rejected == 0 {
				bad = append(bad, "no admission rejections")
			}
			if rep.MesoParkedPeriods != 0 {
				bad = append(bad, fmt.Sprintf("meso parked %d lane-periods with meso off", rep.MesoParkedPeriods))
			}
			return bad
		},
	},
	{
		name: "group-faults",
		gen:  genGroupFaults,
		guards: func(_ *scenario.Spec, r *result) []string {
			var bad []string
			if r.rep.Faulted == 0 {
				bad = append(bad, "no faulted devices")
			}
			if r.rep.MesoGroupLanes == 0 {
				bad = append(bad, "no virtual lanes")
			}
			return bad
		},
	},
	{
		name: "group-churn",
		gen:  genGroupChurn,
		guards: func(sp *scenario.Spec, r *result) []string {
			var adds, removes int
			for _, ev := range sp.Fleet.Churn {
				adds += ev.Add
				removes += ev.Remove
			}
			var bad []string
			if r.rep.ChurnAdds != adds {
				bad = append(bad, fmt.Sprintf("churn adds %d, configured %d", r.rep.ChurnAdds, adds))
			}
			if r.rep.ChurnRemoves != removes {
				bad = append(bad, fmt.Sprintf("churn removes %d, configured %d", r.rep.ChurnRemoves, removes))
			}
			return bad
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// mixedProfiles is the heterogeneous profile mix; replica groups
// round-robin over it.
var mixedProfiles = []string{"SSD1", "SSD2", "SSD3", "HDD"}

// splitmix64 derives the spec's independent seeds from the benchmark
// seed, so neighbouring benchmark seeds give unrelated streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// scaled returns n×scale rounded down to a multiple of unit, never
// below unit.
func scaled(n int, scale float64, unit int) int {
	v := int(float64(n)*scale) / unit * unit
	if v < unit {
		v = unit
	}
	return v
}

// controlPeriod is set explicitly in every generated spec, so the setup
// run can cut a spec to exactly its first period.
const controlPeriod = 100 * time.Millisecond

func baseSpec(name string, seed uint64, runtime time.Duration, fleet *scenario.FleetSpec) *scenario.Spec {
	fleet.ControlPeriod = scenario.Duration(controlPeriod)
	return &scenario.Spec{
		Version:    scenario.Version,
		Name:       name,
		Experiment: "fleet",
		Runtime:    scenario.Duration(runtime),
		Seed:       splitmix64(seed),
		FaultSeed:  splitmix64(seed ^ 0x5eed_fa17),
		Fleet:      fleet,
	}
}

func genKernelMixed(seed uint64, scale float64) *scenario.Spec {
	return baseSpec("kernel-mixed", seed, 500*time.Millisecond, &scenario.FleetSpec{
		Profiles:  mixedProfiles,
		Size:      scaled(1024, scale, 8),
		Replicas:  2,
		RateIOPS:  3000,
		FaultFrac: 0.05,
	})
}

func genGroupFaults(seed uint64, scale float64) *scenario.Spec {
	return baseSpec("group-faults", seed, time.Second, &scenario.FleetSpec{
		Profiles:  mixedProfiles,
		Size:      scaled(100_000, scale, 4),
		RateIOPS:  500,
		FaultFrac: 0.01,
		Meso:      &scenario.MesoSpec{Enable: true, GroupMin: 64, Probes: 2},
	})
}

func genGroupChurn(seed uint64, scale float64) *scenario.Spec {
	const cycles = 20
	const cycle = 4 * time.Second
	size := scaled(1_000_000, scale, 10)
	step := size / 10
	f := &scenario.FleetSpec{
		Profiles: []string{"SSD2"},
		Size:     size,
		Budget:   "max",
		Meso:     &scenario.MesoSpec{Enable: true, GroupMin: 64, Probes: 2},
	}
	for c := 0; c < cycles; c++ {
		t0 := time.Duration(c) * cycle
		f.Arrivals = append(f.Arrivals,
			scenario.RateStepSpec{At: scenario.Duration(t0), RateIOPS: 500},
			scenario.RateStepSpec{At: scenario.Duration(t0 + 1500*time.Millisecond), RateIOPS: 250},
			scenario.RateStepSpec{At: scenario.Duration(t0 + 3*time.Second), RateIOPS: 500})
		f.Churn = append(f.Churn,
			scenario.ChurnEventSpec{At: scenario.Duration(t0 + time.Second), Profile: "SSD2", Add: step,
				Warmup: scenario.Duration(200 * time.Millisecond)},
			scenario.ChurnEventSpec{At: scenario.Duration(t0 + 2500*time.Millisecond), Profile: "SSD2", Remove: step})
	}
	return baseSpec("group-churn", seed, cycles*cycle, f)
}
