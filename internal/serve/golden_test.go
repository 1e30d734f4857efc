package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenSpecs are the fleet serving paths pinned byte-for-byte: a
// pure-kernel heterogeneous fleet (every event through the kernel,
// device models, failover and the stepped planner) and a faulted
// group-tier fleet (GroupPool buckets, probes, fault spans).
var goldenSpecs = map[string]func() Spec{
	"kernel-mixed": func() Spec {
		return Spec{
			Profiles:        []string{"SSD1", "SSD2", "SSD3", "HDD"},
			Size:            64,
			Replicas:        2,
			Horizon:         200 * time.Millisecond,
			ControlPeriod:   50 * time.Millisecond,
			Seed:            3,
			FaultSeed:       5,
			FaultFrac:       0.05,
			CheckInvariants: true,
			Budget: []BudgetStep{
				{At: 0, FleetW: 64 * 12},
				{At: 100 * time.Millisecond, FleetW: 64 * 6},
			},
		}
	},
	"group-faults": func() Spec {
		sp := groupFaultSpec()
		sp.Profiles = []string{"SSD1", "SSD2", "SSD3", "HDD"}
		sp.Horizon = time.Second
		return sp
	},
}

// TestServeReportGolden locks the canonical JSON of the merged fleet
// Report — every counter, latency, interval and event count — so any
// change to kernel dispatch order, a device model or the serving tier
// shows up as a golden diff. Refresh intentionally with
//
//	go test ./internal/serve -run TestServeReportGolden -update
func TestServeReportGolden(t *testing.T) {
	for name, spec := range goldenSpecs {
		name, spec := name, spec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(spec())
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report differs from %s (refresh with -update if intended)\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
		})
	}
}
