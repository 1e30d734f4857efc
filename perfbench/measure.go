package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"wattio/internal/scenario"
	"wattio/internal/serve"
	wl "wattio/internal/workload"
)

// result is one serve.Run call as the benchmark saw it: host-side
// costs measured around the call, and the program's deterministic
// report.
type result struct {
	seed     uint64 // generator seed of the spec that ran
	setup    bool   // a run cut to the first control period
	traced   bool   // profiled; its host costs are not end-to-end numbers
	buildDur time.Duration
	horizon  time.Duration // simulated serving time of the spec that ran
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64 // bytes allocated during the run
	peakHeap uint64 // peak heap-object bytes seen during the run
	gcCPU    float64
	gcCycles uint64
	rep      *serve.Report
	digest   string
	err      error
}

// Runtime metrics read around every run.
const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mHeapObjs = "/memory/classes/heap/objects:bytes"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mGCCycles = "/gc/cycles/total:gc-cycles"
)

func readMetrics(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// cpuTime is the process's user + system CPU time. Getrusage of the
// calling process fails only for a bad argument, so an error reads as
// zero.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapWatch samples the heap-object bytes (live objects and those not
// yet swept, the figure runtime.MemStats calls HeapAlloc) every
// interval until stopped and keeps the peak. It reads runtime/metrics,
// which does not stop the world.
type heapWatch struct {
	stop, done chan struct{}
	peak       uint64
}

func watchHeap(interval time.Duration) *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	w.sample()
	go func() {
		defer close(w.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.sample()
			}
		}
	}()
	return w
}

func (w *heapWatch) sample() {
	if v := readMetrics(mHeapObjs)[0].Value.Uint64(); v > w.peak {
		w.peak = v
	}
}

// Stop ends sampling, takes a last reading and returns the peak.
func (w *heapWatch) Stop() uint64 {
	close(w.stop)
	<-w.done
	w.sample()
	return w.peak
}

// buildSpec is the scenario layer's share of a run: strict decode and
// validation of the generated spec, then the serving spec.
func buildSpec(specJSON []byte) (serve.Spec, error) {
	sp, err := scenario.Parse(bytes.NewReader(specJSON))
	if err != nil {
		return serve.Spec{}, err
	}
	return sp.ServeSpec(sp.Runtime.D())
}

// cutToFirstPeriod returns the spec shortened to its first control
// period, with every later budget, rate and churn entry dropped: the
// run then costs what serve.Run does before the fleet starts serving
// (build, materialize, first plan) plus one period of simulation.
// The spec must set its control period: a zero horizon would take
// serve's default instead of being cut.
func cutToFirstPeriod(ss serve.Spec) (serve.Spec, error) {
	cp := ss.ControlPeriod
	if cp <= 0 {
		return ss, fmt.Errorf("setup run: spec has no explicit control period")
	}
	ss.Horizon = cp
	ss.Budget = keepBefore(ss.Budget, cp, func(b serve.BudgetStep) time.Duration { return b.At })
	ss.Rates = keepBefore(ss.Rates, cp, func(r wl.RateStep) time.Duration { return r.At })
	ss.Churn = keepBefore(ss.Churn, cp, func(ev serve.ChurnEvent) time.Duration { return ev.At + ev.Warmup })
	return ss, nil
}

func keepBefore[T any](xs []T, t time.Duration, at func(T) time.Duration) []T {
	var out []T
	for _, x := range xs {
		if at(x) < t {
			out = append(out, x)
		}
	}
	return out
}

// runOnce decodes the spec and runs it, measuring the serve.Run call.
// Each layer call gets a span under parent.
func runOnce(tr *tracer, parent int, specJSON []byte, seed uint64, setup bool) *result {
	r := &result{seed: seed, setup: setup}
	_, end := tr.begin(parent, "scenario.build")
	t0 := time.Now()
	ss, err := buildSpec(specJSON)
	r.buildDur = time.Since(t0)
	end()
	if err != nil {
		r.err = err
		return r
	}
	if setup {
		if ss, err = cutToFirstPeriod(ss); err != nil {
			r.err = err
			return r
		}
	}
	r.horizon = ss.Horizon
	runtime.GC()
	before := readMetrics(mAllocs, mGCCPU, mGCCycles)
	hw := watchHeap(2 * time.Millisecond)
	_, end = tr.begin(parent, "serve.Run")
	c0, w0 := cpuTime(), time.Now()
	rep, err := runServe(ss)
	r.wall, r.cpu = time.Since(w0), cpuTime()-c0
	end()
	r.peakHeap = hw.Stop()
	after := readMetrics(mAllocs, mGCCPU, mGCCycles)
	r.alloc = after[0].Value.Uint64() - before[0].Value.Uint64()
	r.gcCPU = after[1].Value.Float64() - before[1].Value.Float64()
	r.gcCycles = after[2].Value.Uint64() - before[2].Value.Uint64()
	if err != nil {
		r.err = err
		return r
	}
	r.rep = rep
	r.digest, r.err = digest(rep)
	return r
}

// runServe calls serve.Run and returns a panic on the calling goroutine
// as an error. A panic inside a shard goroutine still ends the process,
// which the caller sees as a failed run with no result line.
func runServe(ss serve.Spec) (rep *serve.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return serve.Run(ss)
}

// digest is the SHA-256 of the report's JSON encoding. The report is
// deterministic for a fixed spec, so two runs of one spec must agree.
func digest(rep *serve.Report) (string, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return "", fmt.Errorf("report digest: %w", err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}
