package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wattio/internal/scenario"
)

// fleetScale keeps the serving run small enough for the unit suite
// while still exercising replication, faults, and all three budget
// phases.
var fleetScale = func() Scale {
	sp := scenario.BuiltIn("fleet")
	sp.Runtime = scenario.Duration(600 * time.Millisecond)
	sp.Fleet = &scenario.FleetSpec{Size: 12, Replicas: 2, RateIOPS: 9000, FaultFrac: 0.25}
	return ScaleFor(sp)
}()

func TestFleetRuns(t *testing.T) {
	e, ok := ByID("fleet")
	if !ok {
		t.Fatal("fleet experiment not registered")
	}
	var sb strings.Builder
	if err := e.Run(fleetScale, &sb); err != nil {
		t.Fatalf("fleet: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"== Fleet serving", "throughput:", "budget W", "tracking OK", "power-cap probe OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestFleetDeterministicOutput pins the experiment's whole report: two
// runs must print byte-identical text, faults included.
func TestFleetDeterministicOutput(t *testing.T) {
	e, _ := ByID("fleet")
	var a, b strings.Builder
	if err := e.Run(fleetScale, &a); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(fleetScale, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("fleet output not reproducible:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
}

func TestFleetBadBudgetFlag(t *testing.T) {
	e, _ := ByID("fleet")
	s := fleetScale
	s.Scenario = s.Scenario.Clone()
	s.Scenario.Fleet.Budget = "0s:nonsense"
	var sb strings.Builder
	if err := e.Run(s, &sb); err == nil {
		t.Fatal("malformed budget schedule accepted")
	}
}

func TestFleetSpecDefaults(t *testing.T) {
	spec, err := FleetSpec(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Size != 64 || spec.RateIOPS != 7000 {
		t.Fatalf("defaults not applied: %+v", spec)
	}
	if len(spec.Budget) != 3 {
		t.Fatalf("default schedule has %d steps, want 3", len(spec.Budget))
	}
	if spec.Budget[1].FleetW >= spec.Budget[0].FleetW || spec.Budget[2].FleetW <= spec.Budget[1].FleetW {
		t.Fatalf("default schedule is not a curtail-then-recover walk: %+v", spec.Budget)
	}
}

// TestFleetSpecFromScenario checks the spec pipeline end to end: a
// Scale carrying a declarative scenario materializes exactly the
// serving spec the scenario describes, fault scripts included.
func TestFleetSpecFromScenario(t *testing.T) {
	s := Quick
	s.Scenario = scenario.BuiltIn("stepped-budget")
	s.Runtime = 2 * time.Second
	spec, err := FleetSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Size != 64 || spec.Replicas != 2 {
		t.Fatalf("scenario fleet shape not applied: %+v", spec)
	}
	if len(spec.Budget) != 3 || spec.Budget[0].FleetW != 14.6*64 || spec.Budget[1].At != 600*time.Millisecond {
		t.Fatalf("scenario budget schedule not applied: %+v", spec.Budget)
	}
	if len(spec.Faults) != 1 || spec.Faults[0].Device != "SSD2#00003" {
		t.Fatalf("scenario fault script not applied: %+v", spec.Faults)
	}
}

// TestFleetScenarioFlagEquivalence pins the acceptance contract: the
// built-in "fleet" scenario and the bare flag path must produce the
// same serving spec.
func TestFleetScenarioFlagEquivalence(t *testing.T) {
	flags, err := FleetSpec(Quick)
	if err != nil {
		t.Fatal(err)
	}
	s := ScaleFor(scenario.BuiltIn("fleet"))
	spec, err := FleetSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", flags) != fmt.Sprintf("%+v", spec) {
		t.Fatalf("flag and scenario specs diverge:\nflags: %+v\nspec:  %+v", flags, spec)
	}
}
