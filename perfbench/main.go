// Command perfbench is wattio's benchmark. It generates a fleet
// scenario for a named workload from a seed, hands it to the public
// scenario and serve layers, measures host time, CPU, memory and the
// analytic tier's fidelity, checks the reports, and prints one JSON
// result line. With -trace 1 it adds a profiled run and reports
// per-layer metrics instead. See README.md for the workloads and the
// layer map.
//
//	go build -o perfbench . && ./perfbench -workload kernel-mixed -seed 1 -seconds 25 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	// subSeeds is how many scenarios the run generates from its seed;
	// every metric is the mean over them of the per-scenario median.
	// The self-tests use one.
	subSeeds int
	// scale sizes the generated fleets: 1 is the benchmark's size, and
	// the self-tests use tiny fractions.
	scale float64
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name, or \"all\" to run every workload in turn")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's scenarios are generated from")
	flag.Float64Var(&o.seconds, "seconds", 30, "seconds of measured runs")
	flag.IntVar(&trace, "trace", 0, "1 adds a profiled run and reports per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for spans and profiles of traced runs")
	flag.Parse()
	o.trace = trace == 1
	o.subSeeds, o.scale = 3, 1
	if trace != 0 && trace != 1 || o.seconds < 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad flags")
		os.Exit(2)
	}
	var todo []*workload
	if o.workload == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else {
		w, err := findWorkload(o.workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		todo = append(todo, w)
	}
	fmt.Printf("conditions: go=%s os=%s/%s cpus=%d gomaxprocs=%d seed=%d subseeds=%d seconds=%g trace=%v\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		o.seed, o.subSeeds, o.seconds, o.trace)

	var outs []*outcome
	for _, w := range todo {
		oc, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		oc.print(os.Stdout)
		outs = append(outs, oc)
	}
	if err := printResult(os.Stdout, outs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// outcome is one workload's checked, summarized run.
type outcome struct {
	name      string
	attempted int
	failures  []string // one line per failed run
	failed    int
	metrics   []metric
}

func (oc *outcome) print(w io.Writer) {
	fmt.Fprintf(w, "%s: %d runs, %d failed (failed_frac %.4f)\n", oc.name, oc.attempted, oc.failed,
		float64(oc.failed)/float64(oc.attempted))
	for _, f := range oc.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	for _, m := range oc.metrics {
		fmt.Fprintf(w, "  %-24s %14.6g %s\n", m.name, m.value, m.unit)
	}
}

// printResult writes the last line: one JSON object. A single workload
// reports its metrics by name; "all" prefixes each with its workload.
func printResult(w io.Writer, outs []*outcome) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: true, Metrics: map[string]val{}}
	for _, oc := range outs {
		res.Attempted += oc.attempted
		res.Failed += oc.failed
		for _, m := range oc.metrics {
			name := m.name
			if len(outs) > 1 {
				name = oc.name + "/" + name
			}
			res.Metrics[name] = val{m.value, m.unit}
		}
	}
	res.Correct = res.Failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// outPath names one output file of a traced run.
func outPath(o options, w *workload, file string) string {
	return filepath.Join(o.out, fmt.Sprintf("%s-seed%d-%s", w.name, o.seed, file))
}
