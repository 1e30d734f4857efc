package serve

import (
	"testing"
	"time"

	"wattio/internal/detcheck"
	"wattio/internal/fault"
)

// groupBase: big enough for real cohorts per shard, small enough for
// unit tests. 64 lanes over 2 shards → 32 members per shard cohort,
// with 2 resident probes each: 30 virtual members per shard.
func groupBase() Spec {
	return Spec{
		Size:            64,
		Shards:          2,
		Horizon:         2 * time.Second,
		RateIOPS:        3000,
		Seed:            7,
		CheckInvariants: true,
		Meso:            true,
		MesoGroupMin:    4,
	}
}

func TestGroupSpecValidation(t *testing.T) {
	t.Parallel()
	sp := groupBase()
	sp.Meso = false
	if _, err := Run(sp); err == nil {
		t.Fatal("group parking without the meso tier must be rejected")
	}
	sp = groupBase()
	sp.MesoGroupMin = 0
	sp.MesoProbes = 2
	if _, err := Run(sp); err == nil {
		t.Fatal("probe count without group parking must be rejected")
	}
	sp = groupBase()
	sp.MesoGroupMin = -1
	if _, err := Run(sp); err == nil {
		t.Fatal("negative group minimum must be rejected")
	}
}

// TestGroupOffLeavesReportClean: plain meso runs carry no group
// accounting, so goldens and existing reports are unaffected.
func TestGroupOffLeavesReportClean(t *testing.T) {
	t.Parallel()
	sp := groupBase()
	sp.MesoGroupMin = 0
	r, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if r.MesoGroupLanes != 0 || r.MesoGroupBuckets != 0 || r.MesoGroupScans != 0 || r.MesoGroupJ != 0 {
		t.Fatalf("group accounting on a group-off run: %+v", r)
	}
}

// TestGroupParkingEquivalence is the tier's core contract: virtualizing
// most of a cohort behind probe-calibrated buckets must agree with the
// per-lane-parked run of the same spec within the meso energy gate,
// while shrinking mechanistic work by about the virtualization ratio.
func TestGroupParkingEquivalence(t *testing.T) {
	t.Parallel()
	perLane := groupBase()
	perLane.MesoGroupMin = 0
	pl, err := Run(perLane)
	if err != nil {
		t.Fatal(err)
	}
	pure := groupBase()
	pure.MesoGroupMin = 0
	pure.Meso = false
	pu, err := Run(pure)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Run(groupBase())
	if err != nil {
		t.Fatal(err)
	}

	if gr.MesoGroupLanes == 0 || gr.MesoGroupBuckets == 0 {
		t.Fatalf("nothing virtualized: lanes=%d buckets=%d", gr.MesoGroupLanes, gr.MesoGroupBuckets)
	}
	// 64 lanes, 2 shards, 2 probes each → 60 virtual.
	if gr.MesoGroupLanes != 60 {
		t.Fatalf("MesoGroupLanes = %d, want 60", gr.MesoGroupLanes)
	}
	if gr.MesoGroupJ <= 0 {
		t.Fatalf("virtual population accounted no energy: %v", gr.MesoGroupJ)
	}
	if !gr.CapOK || !gr.TrackOK || !gr.MesoDriftOK {
		t.Fatalf("probes failed: cap=%v track=%v drift=%v (worst %.4f)",
			gr.CapOK, gr.TrackOK, gr.MesoDriftOK, gr.MesoWorstDriftFrac)
	}
	// Virtual members dispatch no kernel events at all; only the probes
	// serve mechanistically.
	if gr.Events*4 >= pl.Events {
		t.Fatalf("group run dispatched %d events, per-lane %d — want at least 4x reduction", gr.Events, pl.Events)
	}

	relDiff := func(a, b float64) float64 {
		d := (a - b) / b
		if d < 0 {
			d = -d
		}
		return d
	}
	if d := relDiff(gr.AvgPowerW, pl.AvgPowerW); d > 0.10 {
		t.Fatalf("group energy diverged: group %.3f W, per-lane %.3f W (%.1f%%)", gr.AvgPowerW, pl.AvgPowerW, 100*d)
	}
	// Virtual members serve the offered rate for the whole horizon —
	// they never spend periods draining or idle-calibrating — so their
	// throughput reference is the pure mechanistic run (per-lane meso
	// legitimately under-serves by its transition periods).
	if d := relDiff(gr.ThroughputMBps, pu.ThroughputMBps); d > 0.10 {
		t.Fatalf("group throughput diverged: group %.3f, pure %.3f MB/s (%.1f%%)", gr.ThroughputMBps, pu.ThroughputMBps, 100*d)
	}
	if d := relDiff(gr.AvgPowerW, pu.AvgPowerW); d > 0.10 {
		t.Fatalf("group energy diverged from pure run: group %.3f W, pure %.3f W (%.1f%%)", gr.AvgPowerW, pu.AvgPowerW, 100*d)
	}
}

// TestGroupBudgetStepSplitsBuckets: a budget step tight enough to
// spread a cohort across power states must split its bucket, keep the
// plan work bucket-shaped (scans ≪ lanes), and hold every gate.
func groupStepSpec() Spec {
	sp := groupBase()
	// SSD2's concave hull runs ps2 (9.7 W) to ps0 (14.4 W). Base is
	// 64×9.7 = 620.8 W; the step budget affords only some lanes the
	// 4.7 W upgrade, so each shard cohort splits across two buckets.
	sp.Budget = []BudgetStep{
		{At: 0, FleetW: 64 * 14.6},
		{At: 1 * time.Second, FleetW: 64*9.7 + 30*4.7},
	}
	return sp
}

func TestGroupBudgetStepSplitsBuckets(t *testing.T) {
	t.Parallel()
	r, err := Run(groupStepSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Two shards, one cohort each: ≥2 buckets per shard after the split.
	if r.MesoGroupBuckets < 4 {
		t.Fatalf("budget step did not split buckets: %d", r.MesoGroupBuckets)
	}
	if r.Replans < 4 {
		t.Fatalf("Replans = %d, want both steps on both shards", r.Replans)
	}
	// The control-period scan is bucket-shaped: every re-plan touches
	// O(hull levels) slots, never O(lanes).
	if r.MesoGroupScans >= r.Devices {
		t.Fatalf("group scan work O(lanes): %d slots for %d devices", r.MesoGroupScans, r.Devices)
	}
	if !r.TrackOK || !r.CapOK || !r.MesoDriftOK {
		t.Fatalf("probes failed across bucket split: track=%v cap=%v drift=%v (worst %.4f)",
			r.TrackOK, r.CapOK, r.MesoDriftOK, r.MesoWorstDriftFrac)
	}
	if r.MesoParkedPeriods == 0 {
		t.Fatal("virtual members counted no parked periods")
	}
}

// TestGroupDeterministic: bit-identical reports across GOMAXPROCS on
// the bucket-splitting spec — the group tier's rehydration storm.
// Not parallel: detcheck pins GOMAXPROCS.
func TestGroupDeterministic(t *testing.T) {
	detcheck.Assert(t, func() (*Report, error) { return Run(groupStepSpec()) }, detcheck.Config[*Report]{
		Procs: []int{1, 4, 8},
		Diff: func(t testing.TB, a, b *Report) {
			t.Logf("reference: %+v", a)
			t.Logf("divergent: %+v", b)
		},
	})
}

// TestGroupFaultedMemberStaysResident: fault-injected members of a
// virtualized cohort must materialize and serve mechanistically — an
// aggregate would serve through the dropout as if healthy.
func TestGroupFaultedMemberStaysResident(t *testing.T) {
	t.Parallel()
	sp := groupBase()
	sp.Shards = 1
	// Instance 40 is far past the probe prefix — without the fault it
	// would be virtual.
	sp.Faults = []DeviceFault{{
		Device: InstanceName("SSD2", 40),
		Windows: []fault.Window{
			{Kind: fault.Dropout, Start: 500 * time.Millisecond, Dur: 400 * time.Millisecond},
		},
	}}
	r, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Faulted != 1 {
		t.Fatalf("Faulted = %d, want 1", r.Faulted)
	}
	// 64 members, 2 probes + 1 faulted resident → 61 virtual.
	if r.MesoGroupLanes != 61 {
		t.Fatalf("MesoGroupLanes = %d, want 61", r.MesoGroupLanes)
	}
	// Replicas=1 means no redirector: the dropout's mechanistic trace is
	// the held IO's latency tail, close to the 400 ms window.
	if r.Failovers == 0 && r.LatMax < 300*time.Millisecond {
		t.Fatalf("dropout left no mechanistic trace: failovers=%d latMax=%v", r.Failovers, r.LatMax)
	}
	if !r.MesoDriftOK {
		t.Fatalf("drift tripped: worst %.4f", r.MesoWorstDriftFrac)
	}
}

// groupFaultSpec is groupBase with drawn faults: about one member in
// ten gets a dropout or power-command window, so every shard cohort
// holds faulted members that the group tier serves through their fault
// spans.
func groupFaultSpec() Spec {
	sp := groupBase()
	sp.FaultFrac = 0.1
	sp.FaultSeed = 11
	return sp
}

// TestGroupFaultsMatchResidentReference: a virtualized cohort serving
// its faulted members only for their fault spans must agree with the
// fully resident run of the same spec (MesoGroupMin 0, every faulted
// lane mechanistic for the whole run) within TestGroupParkingEquivalence's
// 10% gates — energy against the per-lane-parked and the pure run,
// throughput against the pure run — and every run must balance its
// request ledger.
func TestGroupFaultsMatchResidentReference(t *testing.T) {
	t.Parallel()
	ref := groupFaultSpec()
	ref.MesoGroupMin = 0
	rr, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	pure := ref
	pure.Meso = false
	pu, err := Run(pure)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Run(groupFaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if gr.Faulted == 0 || gr.Faulted != rr.Faulted {
		t.Fatalf("Faulted = %d (group) vs %d (resident), want the same nonzero draw", gr.Faulted, rr.Faulted)
	}
	// Every faulted member materializes for its span, so none counts as
	// never materialized: 64 lanes − 2×2 probes − the faulted.
	if want := 64 - 4 - gr.Faulted; gr.MesoGroupLanes != want {
		t.Fatalf("MesoGroupLanes = %d, want %d", gr.MesoGroupLanes, want)
	}
	for name, r := range map[string]*Report{"group": gr, "resident": rr, "pure": pu} {
		if r.Offered != r.Admitted+r.Rejected {
			t.Errorf("%s: offered %d != admitted %d + rejected %d", name, r.Offered, r.Admitted, r.Rejected)
		}
		if !r.CapOK || !r.TrackOK {
			t.Errorf("%s: cap=%v track=%v", name, r.CapOK, r.TrackOK)
		}
	}
	if gr.Events >= rr.Events {
		t.Errorf("group run dispatched %d events, resident %d: fault spans saved nothing", gr.Events, rr.Events)
	}
	relDiff := func(a, b float64) float64 {
		d := (a - b) / b
		if d < 0 {
			d = -d
		}
		return d
	}
	if d := relDiff(gr.AvgPowerW, rr.AvgPowerW); d > 0.10 {
		t.Errorf("energy diverged: group %.3f W, resident %.3f W (%.1f%%)", gr.AvgPowerW, rr.AvgPowerW, 100*d)
	}
	if d := relDiff(gr.AvgPowerW, pu.AvgPowerW); d > 0.10 {
		t.Errorf("energy diverged from pure run: group %.3f W, pure %.3f W (%.1f%%)", gr.AvgPowerW, pu.AvgPowerW, 100*d)
	}
	if d := relDiff(gr.ThroughputMBps, pu.ThroughputMBps); d > 0.10 {
		t.Errorf("throughput diverged: group %.3f, pure %.3f MB/s (%.1f%%)", gr.ThroughputMBps, pu.ThroughputMBps, 100*d)
	}
}

// TestGroupFaultsDeterministic: fault spans open and re-park on the
// shard's own clock, so the report stays bit-identical at any
// GOMAXPROCS. Not parallel: detcheck pins GOMAXPROCS.
func TestGroupFaultsDeterministic(t *testing.T) {
	detcheck.Assert(t, func() (*Report, error) { return Run(groupFaultSpec()) }, detcheck.Config[*Report]{
		Procs: []int{1, 4, 8},
		Diff: func(t testing.TB, a, b *Report) {
			t.Logf("reference: %+v", a)
			t.Logf("divergent: %+v", b)
		},
	})
}

// spanSample is one control boundary as seen by traceSpan.
type spanSample struct {
	at time.Duration
	// qlen is the traced group's queue length at the boundary, before
	// the boundary's meso tick; -1 when it is not a live resident.
	qlen int
	// live reports the group as a live resident just after the tick.
	live bool
}

// liveLane reports whether group g is a live (not draining, not
// retired) resident lane of s.
func liveLane(s *shard, g int) (int, bool) {
	li, ok := s.groupLane[g]
	return li, ok && !s.grp.laneGone(li)
}

// traceSpan samples group g at every control boundary inside the
// horizon, and checks after each that no member was lost or doubled:
// the pool's virtual members plus the live residents equal the
// cohorts' member count.
func traceSpan(t *testing.T, s *shard, g int) *[]spanSample {
	t.Helper()
	out := &[]spanSample{}
	cp := s.spec.ControlPeriod
	for at := cp; at < s.spec.Horizon; at += cp {
		at := at
		s.eng.Post(at, func() {
			q := -1
			if li, ok := liveLane(s, g); ok {
				q = s.lanes[li].qlen()
			}
			*out = append(*out, spanSample{at: at, qlen: q})
		})
		s.eng.Post(at+time.Microsecond, func() {
			_, (*out)[len(*out)-1].live = liveLane(s, g)
			live, count := 0, 0
			for li := range s.lanes {
				if !s.grp.laneGone(li) {
					live++
				}
			}
			for _, c := range s.grp.cohorts {
				count += c.count
			}
			if m := s.grp.pool.Members(); m+live != count {
				t.Errorf("at %v: %d virtual + %d resident members, cohorts hold %d", at, m, live, count)
			}
		})
	}
	return out
}

// checkSpan asserts the fault-span residency rule on a trace: group
// resident exactly from boundary `from` until the first boundary at or
// past `end` whose queue was empty, where it re-parks — or, when
// reparks is false, resident through the last boundary.
func checkSpan(t *testing.T, tr []spanSample, from, end time.Duration, reparks bool) {
	t.Helper()
	var repark time.Duration
	for _, sm := range tr {
		want := sm.at >= from && repark == 0
		if want && sm.at >= end && sm.qlen == 0 {
			repark = sm.at
			want = false
		}
		if sm.live != want {
			t.Fatalf("at %v: resident %v, want %v (span from %v, last window closes %v, queue %d)",
				sm.at, sm.live, want, from, end, sm.qlen)
		}
	}
	if reparks && repark == 0 {
		t.Fatalf("never re-parked after its window closed at %v", end)
	}
	if !reparks && repark != 0 {
		t.Fatalf("re-parked at %v, want resident through the horizon", repark)
	}
}

// scriptedGroupShard builds a one-shard groupBase fleet with scripted
// windows on instance 40 — far past the probe prefix, so it is a
// virtual member outside its span.
func scriptedGroupShard(t *testing.T, mut func(*Spec), wins ...fault.Window) *shard {
	t.Helper()
	sp := groupBase()
	sp.Faults = []DeviceFault{{Device: InstanceName("SSD2", 40), Windows: wins}}
	if mut != nil {
		mut(&sp)
	}
	return buildOneShard(t, sp)
}

// TestGroupFaultSpanResidency pins the residency rule: a scripted
// member is resident only from the last control boundary before its
// window opens until its first clean (empty-queue) boundary after the
// window closes, then returns to its bucket — it never counts as a
// never-materialized lane, and its drain is no churn drain.
func TestGroupFaultSpanResidency(t *testing.T) {
	t.Parallel()
	s := scriptedGroupShard(t, nil, fault.Window{Kind: fault.Dropout, Start: 450 * time.Millisecond, Dur: 200 * time.Millisecond})
	if _, ok := liveLane(s, 40); ok {
		t.Fatal("faulted member resident from build")
	}
	tr := traceSpan(t, s, 40)
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	checkSpan(t, *tr, 400*time.Millisecond, 650*time.Millisecond, true)
	if res.Faulted != 1 || res.MesoGroupLanes != 61 {
		t.Fatalf("Faulted %d, MesoGroupLanes %d; want 1 and 61", res.Faulted, res.MesoGroupLanes)
	}
	if len(res.DrainLats) != 0 || res.ChurnDrainsBegun != 0 {
		t.Fatalf("re-park counted as a churn drain: %d drains, %d begun", len(res.DrainLats), res.ChurnDrainsBegun)
	}
}

// TestGroupFaultSpanFromBuild: a window open at t=0 has no earlier
// boundary, so the member is resident from build — and still re-parks
// after recovery.
func TestGroupFaultSpanFromBuild(t *testing.T) {
	t.Parallel()
	s := scriptedGroupShard(t, nil, fault.Window{Kind: fault.Dropout, Start: 0, Dur: 300 * time.Millisecond})
	if _, ok := liveLane(s, 40); !ok {
		t.Fatal("member with a window at t=0 not resident from build")
	}
	tr := traceSpan(t, s, 40)
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	checkSpan(t, *tr, 0, 300*time.Millisecond, true)
	if res.MesoGroupLanes != 61 {
		t.Fatalf("MesoGroupLanes = %d, want 61", res.MesoGroupLanes)
	}
}

// TestGroupFaultSpanPastHorizon: a window reaching past the horizon
// keeps its member resident to the end — it never re-parks, so the
// horizon settle counts it once, as a resident (traceSpan's member
// balance holds through the last boundary), and the ledger balances.
func TestGroupFaultSpanPastHorizon(t *testing.T) {
	t.Parallel()
	s := scriptedGroupShard(t, nil, fault.Window{Kind: fault.Dropout, Start: 1500 * time.Millisecond, Dur: time.Second})
	tr := traceSpan(t, s, 40)
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	checkSpan(t, *tr, 1400*time.Millisecond, 2500*time.Millisecond, false)
	if _, ok := liveLane(s, 40); !ok {
		t.Fatal("member left residency before the run ended")
	}
	if res.Offered != res.Admitted+res.Rejected {
		t.Fatalf("ledger: offered %d != admitted %d + rejected %d", res.Offered, res.Admitted, res.Rejected)
	}
	if !res.CapOK {
		t.Fatal("power-cap probe fired")
	}
}

// TestGroupFaultSpanTwoWindows: two scripted windows make one span,
// from the boundary before the first opens to the first clean boundary
// after the last closes — one materialization, no re-park in between.
func TestGroupFaultSpanTwoWindows(t *testing.T) {
	t.Parallel()
	s := scriptedGroupShard(t, nil,
		fault.Window{Kind: fault.Dropout, Start: 500 * time.Millisecond, Dur: 100 * time.Millisecond},
		fault.Window{Kind: fault.Dropout, Start: 1000 * time.Millisecond, Dur: 200 * time.Millisecond})
	tr := traceSpan(t, s, 40)
	if _, err := s.run(); err != nil {
		t.Fatal(err)
	}
	checkSpan(t, *tr, 400*time.Millisecond, 1200*time.Millisecond, true)
	n := 0
	for _, g := range s.laneGroup {
		if g == 40 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("group 40 materialized %d times, want once", n)
	}
}

// TestGroupFaultSpanAcrossBudgetStep: a power-command window across a
// budget step makes the span member refuse its re-plan command; the
// planner holds it at its stuck estimate and re-plans the rest, and the
// member still re-parks after the window.
func TestGroupFaultSpanAcrossBudgetStep(t *testing.T) {
	t.Parallel()
	s := scriptedGroupShard(t, func(sp *Spec) { sp.Budget = groupStepSpec().Budget },
		fault.Window{Kind: fault.PowerCmdFail, Start: 800 * time.Millisecond, Dur: 500 * time.Millisecond})
	tr := traceSpan(t, s, 40)
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	checkSpan(t, *tr, 700*time.Millisecond, 1300*time.Millisecond, true)
	if res.Compensations == 0 {
		t.Fatal("refused command at the budget step forced no compensation pass")
	}
	if !res.CapOK || res.Infeasible != 0 {
		t.Fatalf("cap OK %v, infeasible %d", res.CapOK, res.Infeasible)
	}
}

// TestGroupFaultSpanCancelledByChurn: a churn removal that takes a
// faulted member before its window opens cancels its materialization —
// the member leaves as a virtual one, with no drain, and counts as
// never materialized.
func TestGroupFaultSpanCancelledByChurn(t *testing.T) {
	t.Parallel()
	// Scale-in pops the highest group number of the profile: 63.
	sp := groupBase()
	sp.Faults = []DeviceFault{{Device: InstanceName("SSD2", 63), Windows: []fault.Window{
		{Kind: fault.Dropout, Start: time.Second, Dur: 300 * time.Millisecond},
	}}}
	sp.Churn = []ChurnEvent{{At: 500 * time.Millisecond, Profile: "SSD2", Remove: 1}}
	s := buildOneShard(t, sp)
	tr := traceSpan(t, s, 63)
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range *tr {
		if sm.live {
			t.Fatalf("removed member resident at %v", sm.at)
		}
	}
	for _, g := range s.laneGroup {
		if g == 63 {
			t.Fatal("removed member materialized")
		}
	}
	if res.Faulted != 1 || res.ChurnRemoves != 1 || res.ChurnDrainsBegun != 0 || len(res.DrainLats) != 0 {
		t.Fatalf("Faulted %d, removes %d, drains begun %d, drains %d; want 1, 1, 0, 0",
			res.Faulted, res.ChurnRemoves, res.ChurnDrainsBegun, len(res.DrainLats))
	}
	// 64 members − 2 probes; the cancelled one never materialized.
	if res.MesoGroupLanes != 62 {
		t.Fatalf("MesoGroupLanes = %d, want 62", res.MesoGroupLanes)
	}
}
