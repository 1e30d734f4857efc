package scenario

import (
	"sort"
	"time"
)

// builtins are the named canonical scenarios. The files under
// scenarios/ are their canonical encodings — TestScenarioFilesCanonical
// pins file == BuiltIn(name).Canonical() so the on-disk specs can never
// drift from the defaults the experiments run.
var builtins = map[string]func() *Spec{
	// paper-default reproduces the full experiment suite exactly as
	// `powerbench -exp all` runs it: the paper's four modeled devices,
	// the published seeds, quick scale unless overridden.
	"paper-default": func() *Spec {
		return &Spec{
			Version:    Version,
			Name:       "paper-default",
			Notes:      "The paper's evaluation suite: every table and figure at the published seeds. Equivalent to `powerbench -exp all`.",
			Experiment: "all",
			Scale:      "quick",
			Seed:       42,
			FaultSeed:  1,
			Devices: []DeviceSpec{
				{Profile: "SSD1"},
				{Profile: "SSD2"},
				{Profile: "SSD3"},
				{Profile: "HDD"},
			},
		}
	},
	// fleet is the fleet experiment's default serving run, spelled out:
	// 64 SSD2s at 7000 IOPS per active device under the stepped
	// curtail-and-recover budget (budget "" = that default schedule).
	"fleet": func() *Spec {
		return &Spec{
			Version:    Version,
			Name:       "fleet",
			Notes:      "Fleet serving defaults: 64 devices, 7000 IOPS/device, stepped curtail-and-recover budget. Equivalent to `powerbench -exp fleet`.",
			Experiment: "fleet",
			Scale:      "quick",
			Seed:       42,
			FaultSeed:  1,
			Fleet: &FleetSpec{
				Size:     64,
				RateIOPS: 7000,
			},
		}
	},
	// fleet-1k scales the serving engine to a thousand mirrored devices
	// with a tenth of them faulted; the short runtime keeps a -race CI
	// run affordable.
	"fleet-1k": func() *Spec {
		return &Spec{
			Version:    Version,
			Name:       "fleet-1k",
			Notes:      "Thousand-device mirrored fleet with 10% of devices faulted; short horizon so CI can afford it under -race.",
			Experiment: "fleet",
			Scale:      "quick",
			Runtime:    Duration(500 * time.Millisecond),
			Seed:       42,
			FaultSeed:  1,
			Fleet: &FleetSpec{
				Size:      1000,
				Replicas:  2,
				RateIOPS:  7000,
				FaultFrac: 0.1,
			},
		}
	},
	// chaos pins every knob of the four control-plane fault-recovery
	// phases at its published default.
	"chaos": func() *Spec {
		return &Spec{
			Version:    Version,
			Name:       "chaos",
			Notes:      "Control-plane fault recovery: governor retry, replica failover, budget re-plan, rollout quarantine. Equivalent to `powerbench -exp chaos`.",
			Experiment: "chaos",
			Scale:      "quick",
			Seed:       42,
			FaultSeed:  1,
			Chaos: &ChaosSpec{
				GovBudgetW:      11,
				GovControl:      Duration(50 * time.Millisecond),
				IOErrorProb:     0.2,
				Replicas:        3,
				Active:          2,
				RateIOPS:        3000,
				FleetBudgetW:    22,
				Racks:           2,
				LeavesPerRack:   3,
				Staged:          4,
				Restaged:        2,
				AuditThresholdW: 12,
				CapState:        2,
			},
		}
	},
	// stepped-budget drives the fleet through an explicit multi-step
	// per-device schedule and scripts a dropout onto one named instance
	// — the spec-file spelling of `-budget ... ` plus a fault script no
	// flag can express.
	"stepped-budget": func() *Spec {
		return &Spec{
			Version:    Version,
			Name:       "stepped-budget",
			Notes:      "Explicit per-device budget staircase plus a scripted mid-run dropout on one instance (faults no CLI flag can express).",
			Experiment: "fleet",
			Scale:      "quick",
			Runtime:    Duration(2 * time.Second),
			Seed:       42,
			FaultSeed:  1,
			Fleet: &FleetSpec{
				Size:     64,
				Replicas: 2,
				RateIOPS: 7000,
				Budget:   "0s:14.6pd,600ms:11pd,1200ms:12.5pd",
				Faults: []FleetFault{
					{
						Device: "SSD2#00003",
						Windows: []FaultWindow{
							{Kind: "dropout", Start: Duration(500 * time.Millisecond), Dur: Duration(400 * time.Millisecond)},
						},
					},
				},
			},
		}
	},
	// campaign is the canonical three-axis grid campaign: budget
	// schedule × fleet size × fault seed over a small mirrored fleet
	// with one scripted dropout, 8 points, short horizon so CI can
	// afford the whole family under -race.
	"campaign": func() *Spec {
		return &Spec{
			Version:    Version,
			Name:       "campaign",
			Notes:      "Three-axis campaign (budget schedule x fleet size x fault seed): 8 fleet points with a scripted dropout, sized for CI. Run with `powerfleet campaign`.",
			Experiment: "fleet",
			Scale:      "quick",
			Runtime:    Duration(250 * time.Millisecond),
			Seed:       42,
			FaultSeed:  1,
			Fleet: &FleetSpec{
				Size:     8,
				Replicas: 2,
				RateIOPS: 5000,
				Faults: []FleetFault{
					{
						Device: "SSD2#00003",
						Windows: []FaultWindow{
							{Kind: "dropout", Start: Duration(80 * time.Millisecond), Dur: Duration(60 * time.Millisecond)},
						},
					},
				},
			},
			Grid: &GridSpec{
				Budgets:    []string{"0s:14.6pd", "0s:11pd,125ms:12.5pd"},
				FleetSizes: []int{8, 16},
				FaultSeeds: []uint64{1, 2},
			},
		}
	},
	// meso drives the mesoscale-aggregation experiment: a steady fleet
	// under a never-binding budget, long enough that the dehydration
	// transitions amortize below the 1% energy-agreement gate. The
	// experiment runs it twice, tier off then on, and compares.
	"meso": func() *Spec {
		return &Spec{
			Version:    Version,
			Name:       "meso",
			Notes:      "Mesoscale aggregation tier: steady fleet pair-run (pure event-driven vs hybrid analytic) with event-reduction, energy-agreement, and sentinel-drift gates. Equivalent to `powerbench -exp meso`.",
			Experiment: "meso",
			Scale:      "quick",
			Runtime:    Duration(10 * time.Second),
			Seed:       42,
			FaultSeed:  1,
			Fleet: &FleetSpec{
				Size:     64,
				RateIOPS: 3000,
				Budget:   "max",
				Meso:     &MesoSpec{Enable: true},
			},
		}
	},
	// churn drives the lane-lifecycle experiment: a group-parked fleet
	// under a diurnal rate schedule scales out mid-run (with a real
	// warm-up cost), sheds the extra groups after the peak, and must
	// keep every ledger and invariant probe green through both
	// membership epochs.
	"churn": func() *Spec {
		return &Spec{
			Version:    Version,
			Name:       "churn",
			Notes:      "Lane lifecycle under diurnal load: a group-parked fleet scales out 16 replica groups for the peak (200ms warm-up), drains them back after it, and every energy/IO ledger and invariant probe must stay green. Equivalent to `powerbench -exp churn`.",
			Experiment: "churn",
			Scale:      "quick",
			Runtime:    Duration(4 * time.Second),
			Seed:       42,
			FaultSeed:  1,
			Fleet: &FleetSpec{
				Size:   64,
				Budget: "max",
				Meso:   &MesoSpec{Enable: true, GroupMin: 4},
				Arrivals: []RateStepSpec{
					{At: 0, RateIOPS: 3000},
					{At: Duration(1500 * time.Millisecond), RateIOPS: 1200},
					{At: Duration(3 * time.Second), RateIOPS: 3000},
				},
				Churn: []ChurnEventSpec{
					{At: Duration(1 * time.Second), Profile: "SSD2", Add: 16, Warmup: Duration(200 * time.Millisecond)},
					{At: Duration(2500 * time.Millisecond), Profile: "SSD2", Remove: 16},
				},
			},
		}
	},
	// calib drives the learned-device-model experiment: calibrate every
	// catalog class against its mechanistic simulator, then serve the
	// same mixed fleet twice — mechanistic and fitted — under a
	// never-binding budget and compare. The experiment gates on the
	// cross-validated fit quality and on the differential agreement.
	"calib": func() *Spec {
		return &Spec{
			Version:    Version,
			Name:       "calib",
			Notes:      "Learned device models: NNLS calibration of every catalog class with cross-validated fit gates (R², MAPE), then a differential fleet run — fitted vs mechanistic — gated on power agreement. Equivalent to `powerbench -exp calib`.",
			Experiment: "calib",
			Scale:      "quick",
			Runtime:    Duration(2 * time.Second),
			Seed:       42,
			FaultSeed:  1,
			Fleet: &FleetSpec{
				Profiles: []string{"SSD1", "SSD2", "SSD3", "HDD"},
				Size:     16,
				RateIOPS: 3000,
				Budget:   "max",
				Calib:    &CalibSpec{Enable: true},
			},
		}
	},
	// powercap is the examples/powercap device-and-workload shape: one
	// SSD2 under saturating sequential IO, walked through its power
	// states by the example.
	"powercap": func() *Spec {
		return &Spec{
			Version:    Version,
			Name:       "powercap",
			Notes:      "One SSD2 under saturating sequential IO at seed 7; examples/powercap walks its power states for both ops (Fig. 4 asymmetry).",
			Experiment: "fig4",
			Scale:      "quick",
			Seed:       7,
			Devices:    []DeviceSpec{{Profile: "SSD2"}},
			Workload: &WorkloadSpec{
				Op:         "write",
				Pattern:    "seq",
				ChunkBytes: 256 << 10,
				Depth:      64,
				Runtime:    Duration(10 * time.Second),
				TotalBytes: 2 << 30,
			},
		}
	},
	// redirection is the examples/redirection replica set: four mirrored
	// EVOs at seed 11 serving the example's diurnal read phases.
	"redirection": func() *Spec {
		return &Spec{
			Version:    Version,
			Name:       "redirection",
			Notes:      "Four mirrored EVO replicas at seed 11; examples/redirection resizes the active set over a diurnal read load (cf. SRCMap).",
			Experiment: "prop",
			Scale:      "quick",
			Seed:       11,
			Devices:    []DeviceSpec{{Profile: "EVO", Name: "replica", Count: 4}},
		}
	},
}

// BuiltIn returns a fresh copy of a named built-in scenario, or nil if
// the name is unknown.
func BuiltIn(name string) *Spec {
	mk, ok := builtins[name]
	if !ok {
		return nil
	}
	return mk()
}

// BuiltInNames lists the built-in scenarios in sorted order.
func BuiltInNames() []string {
	out := make([]string, 0, len(builtins))
	for name := range builtins {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Default returns the built-in scenario a bare `-exp` invocation runs:
// the experiment's own built-in when it has one (fleet, chaos, meso,
// churn, calib), else the paper-default suite narrowed to that
// experiment id.
func Default(expID string) *Spec {
	if sp := BuiltIn(expID); sp != nil && sp.Experiment == expID {
		return sp
	}
	sp := BuiltIn("paper-default")
	sp.Experiment = expID
	return sp
}
