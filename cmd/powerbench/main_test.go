package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI invokes the CLI seam and returns (exit code, stdout, stderr).
func runCLI(args ...string) (int, string, string) {
	var out, errw strings.Builder
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func writeSpec(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// tinySpec is a fleet scenario small enough for the unit suite.
const tinySpec = `{
  "version": 2,
  "name": "tiny",
  "experiment": "fleet",
  "runtime": "250ms",
  "seed": 42,
  "fault_seed": 1,
  "fleet": {
    "size": 8,
    "replicas": 2,
    "rate_iops": 4000
  }
}
`

func TestScenarioRuns(t *testing.T) {
	path := writeSpec(t, "tiny.json", tinySpec)
	code, out, errw := runCLI("-scenario", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(out, "fleet: 8 devices") {
		t.Fatalf("scenario fleet size not applied:\n%s", out)
	}
}

// TestScenarioFlagOverride pins the layering rule: an explicitly-set
// flag beats the scenario, and re-stating the scenario's own value is a
// no-op (the -out files are byte-identical).
func TestScenarioFlagOverride(t *testing.T) {
	path := writeSpec(t, "tiny.json", tinySpec)
	dir := t.TempDir()

	outA := filepath.Join(dir, "a.txt")
	if code, _, errw := runCLI("-scenario", path, "-out", outA); code != 0 {
		t.Fatalf("base run failed: %s", errw)
	}
	outB := filepath.Join(dir, "b.txt")
	if code, _, errw := runCLI("-scenario", path, "-fleet", "8", "-out", outB); code != 0 {
		t.Fatalf("no-op override run failed: %s", errw)
	}
	a, _ := os.ReadFile(outA)
	b, _ := os.ReadFile(outB)
	if string(a) != string(b) {
		t.Fatalf("re-stating the spec's value changed the report:\n--- spec only\n%s\n--- spec + -fleet 8\n%s", a, b)
	}

	code, out, errw := runCLI("-scenario", path, "-fleet", "4")
	if code != 0 {
		t.Fatalf("override run failed: %s", errw)
	}
	if !strings.Contains(out, "fleet: 4 devices") {
		t.Fatalf("-fleet 4 did not override the spec's size 8:\n%s", out)
	}

	// A zero or false flag is a value, not "unset": it must beat a
	// spec that says otherwise.
	faulted := writeSpec(t, "faulted.json", strings.Replace(tinySpec, `"rate_iops": 4000`, `"rate_iops": 4000, "fault_frac": 1`, 1))
	if code, out, errw := runCLI("-scenario", faulted); code != 0 || !strings.Contains(out, "faulted 8)") {
		t.Fatalf("faulted spec: exit %d, stderr %s\n%s", code, errw, out)
	}
	if code, out, errw := runCLI("-scenario", faulted, "-fleetfaults", "0"); code != 0 || !strings.Contains(out, "faulted 0)") {
		t.Fatalf("-fleetfaults 0 did not clear the spec's fault_frac: exit %d, stderr %s\n%s", code, errw, out)
	}
	meso := writeSpec(t, "meso.json", strings.Replace(tinySpec, `"rate_iops": 4000`, `"rate_iops": 4000, "meso": {"enable": true}`, 1))
	if code, out, errw := runCLI("-scenario", meso); code != 0 || !strings.Contains(out, "\nmeso:") {
		t.Fatalf("meso spec: exit %d, stderr %s\n%s", code, errw, out)
	}
	if code, out, errw := runCLI("-scenario", meso, "-meso=false"); code != 0 || strings.Contains(out, "\nmeso:") {
		t.Fatalf("-meso=false did not turn the spec's tier off: exit %d, stderr %s\n%s", code, errw, out)
	}
}

// TestFleetFlagsCreateStanzas: a fleet flag over a spec without a fleet
// stanza creates it, and -mesogroup implies -meso.
func TestFleetFlagsCreateStanzas(t *testing.T) {
	path := writeSpec(t, "bare.json", `{"version": 2, "name": "bare", "experiment": "fleet", "runtime": "250ms", "seed": 42, "fault_seed": 1}
`)
	code, out, errw := runCLI("-scenario", path, "-fleet", "32", "-rate", "4000", "-mesogroup", "8")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	for _, want := range []string{"fleet: 32 devices", "\nmeso:", "\nmeso group:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestMesoExpHonorsFleetFlag: -exp meso runs the meso built-in, so a
// fleet flag reaches it like any other spec override.
func TestMesoExpHonorsFleetFlag(t *testing.T) {
	code, out, errw := runCLI("-exp", "meso", "-fleet", "8")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(out, "fleet: 8 devices") {
		t.Fatalf("-fleet 8 ignored by -exp meso:\n%s", out)
	}
}

func TestScenarioUnknownFieldRejected(t *testing.T) {
	path := writeSpec(t, "typo.json", strings.Replace(tinySpec, `"size"`, `"sizee"`, 1))
	code, _, errw := runCLI("-scenario", path)
	if code != 2 {
		t.Fatalf("unknown field accepted: exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(errw, "sizee") || !strings.Contains(errw, path) {
		t.Fatalf("error does not name the unknown field and file: %s", errw)
	}
}

// TestScenarioValidationNamesPath: a bad value fails validation with
// its spec path, whether it comes from the file or from a fleet flag
// overriding it.
func TestScenarioValidationNamesPath(t *testing.T) {
	bad := writeSpec(t, "bad.json", strings.Replace(tinySpec, `"rate_iops": 4000`, `"rate_iops": 4000, "budget": "0s:junk"`, 1))
	tiny := writeSpec(t, "tiny.json", tinySpec)
	for _, tc := range []struct {
		args []string
		path string
	}{
		{[]string{"-scenario", bad}, "fleet.budget"},
		{[]string{"-scenario", tiny, "-budget", "0s:junk"}, "fleet.budget"},
		{[]string{"-scenario", tiny, "-fleetfaults", "2"}, "fleet.fault_frac"},
		{[]string{"-scenario", tiny, "-mesoprobes", "3"}, "fleet.meso.probes"},
	} {
		code, _, errw := runCLI(tc.args...)
		if code != 2 || !strings.Contains(errw, tc.path) {
			t.Errorf("%v: exit %d, want 2 naming %s; stderr: %s", tc.args, code, tc.path, errw)
		}
	}
}

// TestScenarioGridRejected: powerbench runs one configuration, so a
// campaign spec must be redirected to `powerfleet campaign`, not run as
// whichever point powerbench would silently pick.
func TestScenarioGridRejected(t *testing.T) {
	path := writeSpec(t, "grid.json", strings.Replace(tinySpec,
		`"fleet": {`, `"grid": {"fleet_sizes": [8, 16]},
  "fleet": {`, 1))
	code, _, errw := runCLI("-scenario", path)
	if code != 2 {
		t.Fatalf("campaign spec accepted: exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(errw, "powerfleet campaign") {
		t.Fatalf("error does not point at the campaign runner: %s", errw)
	}
}

// TestScenarioV1Hint: a stale version-1 spec names the migration path.
func TestScenarioV1Hint(t *testing.T) {
	path := writeSpec(t, "v1.json", strings.Replace(tinySpec, `"version": 2`, `"version": 1`, 1))
	code, _, errw := runCLI("-scenario", path)
	if code != 2 || !strings.Contains(errw, "-migrate") {
		t.Fatalf("v1 spec: exit %d, stderr: %s", code, errw)
	}
}

func TestScenarioMissingFile(t *testing.T) {
	code, _, errw := runCLI("-scenario", filepath.Join(t.TempDir(), "nope.json"))
	if code != 2 || !strings.Contains(errw, "nope.json") {
		t.Fatalf("missing spec file: exit %d, stderr: %s", code, errw)
	}
}

func TestUnknownExperiment(t *testing.T) {
	code, _, errw := runCLI("-exp", "nope")
	if code != 2 || !strings.Contains(errw, `"nope"`) {
		t.Fatalf("unknown experiment: exit %d, stderr: %s", code, errw)
	}
}

// TestExpFlagOverridesScenarioExperiment: -exp layered on a spec picks
// the experiment while the spec still supplies seeds and bounds.
func TestExpFlagOverridesScenarioExperiment(t *testing.T) {
	path := writeSpec(t, "tiny.json", tinySpec)
	code, out, errw := runCLI("-scenario", path, "-exp", "table1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(out, "Table 1") {
		t.Fatalf("-exp table1 not honored over spec experiment:\n%s", out)
	}
	if strings.Contains(out, "Fleet serving") {
		t.Fatalf("spec experiment ran despite -exp override:\n%s", out)
	}
}

func TestList(t *testing.T) {
	code, out, _ := runCLI("-list")
	if code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	for _, id := range []string{"fleet", "chaos", "fig10", "table1"} {
		if !strings.Contains(out, id) {
			t.Fatalf("-list missing %q:\n%s", id, out)
		}
	}
}
