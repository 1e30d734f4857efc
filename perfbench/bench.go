package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"wattio/internal/scenario"
)

// genSpec is one generated scenario of a run.
type genSpec struct {
	seed uint64
	sp   *scenario.Spec
	json []byte
}

// setupReps is how many first-period runs each scenario gets; setup_s
// is their median.
const setupReps = 2

// runWorkload runs one workload's phases — scenario build, setup runs,
// timed runs, an optional profiled run, checks — and summarizes them.
func runWorkload(w *workload, o options) (*outcome, error) {
	tr := newTracer()
	root, endRoot := tr.begin(0, "workload")

	var specs []genSpec
	_, end := tr.begin(root, "scenario")
	for i := 0; i < o.subSeeds; i++ {
		seed := o.seed*uint64(o.subSeeds) + uint64(i)
		sp := w.gen(seed, o.scale)
		js, err := sp.Canonical()
		if err != nil {
			return nil, fmt.Errorf("encode generated spec: %w", err)
		}
		if _, err := buildSpec(js); err != nil {
			return nil, fmt.Errorf("generated spec for seed %d: %w", seed, err)
		}
		specs = append(specs, genSpec{seed: seed, sp: sp, json: js})
	}
	end()

	var results []*result
	id, end := tr.begin(root, "setup")
	for r := 0; r < setupReps; r++ {
		for _, g := range specs {
			results = append(results, runOnce(tr, id, g.json, g.seed, true))
		}
	}
	end()

	// Untraced runs give every scenario two runs so its digests can be
	// compared; with tracing, the profiled runs supply the second.
	budget := time.Duration(o.seconds * float64(time.Second))
	minReps := 2 * len(specs)
	if o.trace {
		budget /= 2
		minReps = len(specs)
	}
	id, end = tr.begin(root, "run")
	results = append(results, timedReps(tr, id, specs, budget, minReps, false)...)
	end()

	var cpuProf, allocProf attribution
	if o.trace {
		id, end = tr.begin(root, "traced")
		traced, cpu, alloc, err := profiledReps(tr, id, specs, budget)
		end()
		if err != nil {
			return nil, err
		}
		results = append(results, traced...)
		cpuProf, allocProf = cpu.attribution, alloc.attribution
		for file, b := range map[string][]byte{"cpu.pprof": cpu.raw, "allocs.pprof": alloc.raw} {
			if err := writeFile(outPath(o, w, file), b); err != nil {
				return nil, err
			}
		}
	}

	_, end = tr.begin(root, "check")
	oc := &outcome{name: w.name, attempted: len(results)}
	mismatch := checkDigests(results)
	for _, r := range results {
		bad := checkRun(w, specFor(specs, r.seed), r)
		if m, ok := mismatch[r]; ok {
			bad = append(bad, m)
		}
		if len(bad) > 0 {
			oc.failed++
			oc.failures = append(oc.failures, fmt.Sprintf("seed %d%s: %v", r.seed, phase(r), bad))
		}
	}
	end()
	endRoot()

	if !o.trace {
		oc.metrics = endToEndMetrics(results)
		return oc, nil
	}
	oc.metrics = layerMetrics(specs, results, cpuProf, allocProf)
	if err := tr.write(outPath(o, w, "spans.json")); err != nil {
		return nil, err
	}
	tr.printSelfTimes(os.Stdout)
	return oc, nil
}

// timedReps runs full-horizon scenarios round-robin until budget is
// spent, starting a run only while its expected length still fits, and
// never fewer than minReps runs.
func timedReps(tr *tracer, parent int, specs []genSpec, budget time.Duration, minReps int, traced bool) []*result {
	var out []*result
	var lens []float64
	start := time.Now()
	for i := 0; ; i++ {
		if i >= minReps && time.Since(start)+time.Duration(median(lens)) > budget {
			return out
		}
		g := specs[i%len(specs)]
		t0 := time.Now()
		r := runOnce(tr, parent, g.json, g.seed, false)
		r.traced = traced
		lens = append(lens, float64(time.Since(t0)))
		out = append(out, r)
	}
}

// profile is an encoded pprof profile and its module attribution.
type profile struct {
	raw []byte
	attribution
}

// profiledReps runs the timed loop under the CPU profiler and returns
// the runs, the CPU profile, and the allocation profile of the bytes
// those runs allocated.
func profiledReps(tr *tracer, parent int, specs []genSpec, budget time.Duration) ([]*result, profile, profile, error) {
	var cpu, alloc profile
	before, err := allocSnapshot()
	if err != nil {
		return nil, cpu, alloc, err
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, cpu, alloc, fmt.Errorf("cpu profile: %w", err)
	}
	results := timedReps(tr, parent, specs, budget, len(specs), true)
	pprof.StopCPUProfile()
	cpu.raw = buf.Bytes()
	p, err := parseProfile(cpu.raw)
	if err != nil {
		return nil, cpu, alloc, err
	}
	cpu.attribution = attribute(p, p.valueIndex("cpu"), true)
	if alloc, err = allocSnapshot(); err != nil {
		return nil, cpu, alloc, err
	}
	alloc.attribution = alloc.sub(before.attribution)
	return results, cpu, alloc, nil
}

// allocSnapshot reads the cumulative allocation profile and attributes
// it to modules. Two collections first publish every allocation made
// so far.
func allocSnapshot() (profile, error) {
	runtime.GC()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return profile{}, fmt.Errorf("alloc profile: %w", err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return profile{}, err
	}
	return profile{raw: buf.Bytes(), attribution: attribute(p, p.valueIndex("alloc_space"), false)}, nil
}

func writeFile(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func specFor(specs []genSpec, seed uint64) *scenario.Spec {
	for _, g := range specs {
		if g.seed == seed {
			return g.sp
		}
	}
	return nil
}

func phase(r *result) string {
	switch {
	case r.setup:
		return " (setup)"
	case r.traced:
		return " (traced)"
	}
	return ""
}
