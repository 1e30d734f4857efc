package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// tinyScale shrinks each workload to a fleet that runs in well under a
// second yet still trips every exercise guard the full size does.
var tinyScale = map[string]float64{
	"kernel-mixed": 0.25,
	"group-faults": 0.05,
	"group-churn":  0.005,
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyRun(t *testing.T, w *workload, trace bool) *outcome {
	t.Helper()
	o := options{workload: w.name, seed: 7, subSeeds: 1, scale: tinyScale[w.name], trace: trace, out: t.TempDir()}
	oc, err := runWorkload(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if oc.failed != 0 {
		t.Fatalf("%s: %d of %d runs failed: %v", w.name, oc.failed, oc.attempted, oc.failures)
	}
	return oc
}

// checkMetrics asserts the outcome reports exactly the named metrics,
// each once, with the declared unit and a finite value.
func checkMetrics(t *testing.T, oc *outcome, want []struct{ Name, Unit string }) {
	t.Helper()
	got := make(map[string]metric)
	for _, m := range oc.metrics {
		if _, dup := got[m.name]; dup {
			t.Errorf("%s: metric %s reported twice", oc.name, m.name)
		}
		got[m.name] = m
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", oc.name, len(got), len(want))
	}
	for _, wm := range want {
		m, ok := got[wm.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", oc.name, wm.Name)
		case m.unit != wm.Unit:
			t.Errorf("%s: metric %s unit %q, declared %q", oc.name, wm.Name, m.unit, wm.Unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			t.Errorf("%s: metric %s = %v", oc.name, wm.Name, m.value)
		}
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestTinyEndToEnd(t *testing.T) {
	bf := loadBenchFile(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			oc := tinyRun(t, w, false)
			checkMetrics(t, oc, bf.EndToEnd)
			for _, m := range oc.metrics {
				if m.value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", m.name, m.value)
				}
			}
		})
	}
}

func TestTinyPerLayer(t *testing.T) {
	bf := loadBenchFile(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			oc := tinyRun(t, w, true)
			checkMetrics(t, oc, bf.PerLayer)
			var cpuSum float64
			for _, m := range oc.metrics {
				if strings.HasSuffix(m.name, ".cpu_frac") && m.name != "power.cpu_frac" && m.name != "gc.cpu_frac" {
					cpuSum += m.value
				}
			}
			if cpuSum <= 0.5 || cpuSum > 1+1e-9 {
				t.Errorf("module CPU shares sum to %v; want most of the profile attributed, never more than all", cpuSum)
			}
		})
	}
}

func TestResultLine(t *testing.T) {
	oc := &outcome{name: "x", attempted: 3, failed: 1, metrics: []metric{{"wall_s", "s", 1.5}}}
	var buf bytes.Buffer
	if err := printResult(&buf, []*outcome{oc}); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 3 || res.Failed != 1 || res.Metrics["wall_s"].Value != 1.5 || res.Metrics["wall_s"].Unit != "s" {
		t.Errorf("result line %s", buf.String())
	}
}

func TestSeedMean(t *testing.T) {
	rs := []*result{
		{seed: 1, wall: 1}, {seed: 1, wall: 3}, {seed: 1, wall: 100},
		{seed: 2, wall: 10},
		{seed: 2, wall: 1000, setup: true},
	}
	got := seedMean(rs, isTimed, func(r *result) float64 { return float64(r.wall) })
	if got != (3+10)/2.0 {
		t.Errorf("seedMean = %v, want 6.5", got)
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, _ := w.gen(3, 1).Canonical()
		b, _ := w.gen(3, 1).Canonical()
		c, _ := w.gen(4, 1).Canonical()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: one seed generated two specs", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: two seeds generated one spec", w.name)
		}
	}
}

// tinyResult runs one tiny full-horizon scenario of the workload.
func tinyResult(t *testing.T, w *workload) (*result, []byte) {
	t.Helper()
	sp := w.gen(7, tinyScale[w.name])
	js, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	r := runOnce(newTracer(), 0, js, 7, false)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if bad := checkRun(w, sp, r); len(bad) > 0 {
		t.Fatalf("%s: clean run fails checks: %v", w.name, bad)
	}
	return r, js
}

func TestDigestCheck(t *testing.T) {
	w, _ := findWorkload("kernel-mixed")
	a, js := tinyResult(t, w)
	b := runOnce(newTracer(), 0, js, 7, false)
	if b.err != nil || b.digest != a.digest {
		t.Fatalf("two runs of one spec: digests %s and %s (err %v)", a.digest, b.digest, b.err)
	}
	setup := runOnce(newTracer(), 0, js, 7, true)
	if bad := checkDigests([]*result{a, b, setup}); len(bad) != 0 {
		t.Errorf("matching runs flagged: %v", bad)
	}
	c := *b
	c.digest = "0000"
	if bad := checkDigests([]*result{a, b, &c}); bad[&c] == "" || len(bad) != 1 {
		t.Errorf("mismatched digest not flagged alone: %v", bad)
	}
	rep := *b.rep
	rep.Completed++
	if d, _ := digest(&rep); d == a.digest {
		t.Error("digest ignores the completion count")
	}
}

func TestCutToFirstPeriod(t *testing.T) {
	w, _ := findWorkload("group-churn")
	js, _ := w.gen(1, tinyScale[w.name]).Canonical()
	ss, err := buildSpec(js)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := cutToFirstPeriod(ss)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Horizon != controlPeriod || len(cut.Churn) != 0 || len(cut.Rates) != 1 || len(ss.Churn) == 0 {
		t.Errorf("cut spec: horizon %v, %d churn events, %d rate steps", cut.Horizon, len(cut.Churn), len(cut.Rates))
	}
	ss.ControlPeriod = 0
	if _, err := cutToFirstPeriod(ss); err == nil {
		t.Error("a spec without a control period was cut to a zero horizon")
	}
}

// TestGuardsCanFail breaks each check on a real report and expects the
// run to fail for it.
func TestGuardsCanFail(t *testing.T) {
	type mutation struct {
		name string
		f    func(r *result)
	}
	common := []mutation{
		{"error", func(r *result) { r.err = os.ErrInvalid }},
		{"cap", func(r *result) { r.rep.CapOK = false }},
		{"track", func(r *result) { r.rep.TrackOK = false }},
		{"ledger", func(r *result) { r.rep.Rejected++ }},
		{"completions", func(r *result) { r.rep.Completed = r.rep.Admitted + 1 }},
	}
	specific := map[string][]mutation{
		"kernel-mixed": {
			{"failovers", func(r *result) { r.rep.Failovers = 0 }},
			{"replans", func(r *result) { r.rep.Replans = 0 }},
			{"rejections", func(r *result) {
				r.rep.Offered -= r.rep.Rejected
				r.rep.Rejected = 0
			}},
			{"parked", func(r *result) { r.rep.MesoParkedPeriods = 1 }},
		},
		"group-faults": {
			{"faulted", func(r *result) { r.rep.Faulted = 0 }},
			{"virtual", func(r *result) { r.rep.MesoGroupLanes = 0 }},
		},
		"group-churn": {
			{"adds", func(r *result) { r.rep.ChurnAdds-- }},
			{"removes", func(r *result) { r.rep.ChurnRemoves++ }},
		},
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			clean, _ := tinyResult(t, w)
			sp := w.gen(7, tinyScale[w.name])
			for _, m := range append(append([]mutation(nil), common...), specific[w.name]...) {
				r := *clean
				rep := *clean.rep
				r.rep = &rep
				m.f(&r)
				if bad := checkRun(w, sp, &r); len(bad) == 0 {
					t.Errorf("breaking %s went unnoticed", m.name)
				}
			}
		})
	}
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	vi := p.valueIndex("cpu")
	if vi < 0 || len(p.samples) == 0 {
		t.Fatalf("profile types %v, %d samples (x=%d)", p.types, len(p.samples), x)
	}
	a := attribute(p, vi, true)
	var sum int64
	for _, v := range a.byModule {
		sum += v
	}
	if sum != a.total || a.byModule["other"] == 0 {
		t.Errorf("attribution %v of total %d: the test's own loop must count as other", a.byModule, a.total)
	}
	if _, err := parseProfile(buf.Bytes()[:len(buf.Bytes())/2]); err == nil {
		t.Error("truncated profile parsed")
	}
}

func TestModuleAttribution(t *testing.T) {
	f := func(name, file string) frame { return frame{name: name, file: file} }
	cases := []struct {
		stack      []frame
		self, near string
	}{
		{[]frame{f("wattio/internal/sim.(*Engine).Step", "")}, "sim", "sim"},
		{[]frame{f("runtime.mallocgc", ""), f("wattio/internal/serve.merge", "")}, "runtime", "serve"},
		{[]frame{f("internal/runtime/maps.(*Map).getWithKey", ""), f("wattio/internal/meso.(*GroupPool).Tick", "")}, "runtime", "meso"},
		{[]frame{f("sort.insertionSort", ""), f("wattio/internal/core.(*Fleet).build", "")}, "plan", "plan"},
		{[]frame{f("wattio/internal/stats.Quantile", ""), f("wattio/internal/serve.merge.func1", "")}, "serve", "serve"},
		{[]frame{f("runtime.gcBgMarkWorker", "")}, "runtime", "runtime"},
		{[]frame{f("main.main", "")}, "other", "other"},
	}
	for _, c := range cases {
		if got := selfModule(c.stack); got != c.self {
			t.Errorf("selfModule(%s) = %s, want %s", c.stack[0].name, got, c.self)
		}
		if got := nearestModule(c.stack); got != c.near {
			t.Errorf("nearestModule(%s) = %s, want %s", c.stack[0].name, got, c.near)
		}
	}
	p := &pprofile{types: []string{"alloc_space"}, samples: []psample{
		{stack: []frame{f("runtime.growslice", ""), f("wattio/internal/serve.merge", "")}, values: []int64{5}},
		{stack: []frame{f("wattio/internal/serve.(*shard).admitLane", "/x/internal/serve/lifecycle.go")}, values: []int64{7}},
		{stack: []frame{f("wattio/internal/power.(*Meter).Sample", "")}, values: []int64{11}},
	}}
	a := attribute(p, 0, false)
	if a.bySlice["serve.merge"] != 5 || a.bySlice["serve.churn"] != 7 || a.bySlice["power"] != 11 || a.byModule["serve"] != 12 || a.byModule["devices"] != 11 {
		t.Errorf("slices %v modules %v", a.bySlice, a.byModule)
	}
}
