package serve

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"wattio/internal/detcheck"
	"wattio/internal/fault"
	"wattio/internal/workload"
)

// churnSpec: a plain (no meso) mirrored fleet that scales out two
// replica groups mid-run and drains them back before the horizon.
func churnSpec() Spec {
	return Spec{
		Size:            8,
		Replicas:        2,
		Shards:          2,
		Horizon:         2 * time.Second,
		RateIOPS:        3000,
		Seed:            7,
		CheckInvariants: true,
		Churn: []ChurnEvent{
			{At: 500 * time.Millisecond, Profile: "SSD2", Add: 2, Warmup: 100 * time.Millisecond},
			{At: 1400 * time.Millisecond, Profile: "SSD2", Remove: 2},
		},
	}
}

func TestChurnSpecValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"unknown cohort", func(sp *Spec) { sp.Churn[0].Profile = "HDD" }, "unknown cohort"},
		{"non-increasing", func(sp *Spec) { sp.Churn[1].At = sp.Churn[0].At }, "strictly increasing"},
		{"at zero", func(sp *Spec) { sp.Churn[0].At = 0 }, "outside (0, horizon)"},
		{"at horizon", func(sp *Spec) { sp.Churn[1].At = 2 * time.Second }, "outside (0, horizon)"},
		{"empty event", func(sp *Spec) { sp.Churn[0].Add = 0 }, "at least one group"},
		{"negative warmup", func(sp *Spec) { sp.Churn[0].Warmup = -time.Millisecond }, "negative warm-up"},
		{"warmup past horizon", func(sp *Spec) { sp.Churn[0].Warmup = 2 * time.Second }, "past the horizon"},
		{"cohort emptied", func(sp *Spec) { sp.Churn[1].Remove = 6 }, "at least one must remain"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sp := churnSpec()
			tc.mut(&sp)
			_, err := Run(sp)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestRateSpecValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name  string
		rates []workload.RateStep
		want  string
	}{
		{"late start", []workload.RateStep{{At: time.Millisecond, IOPS: 100}}, "must start at 0"},
		{"zero rate", []workload.RateStep{{At: 0, IOPS: 0}}, "non-positive rate"},
		{"non-increasing", []workload.RateStep{{At: 0, IOPS: 1}, {At: 0, IOPS: 2}}, "strictly increasing"},
		{"past horizon", []workload.RateStep{{At: 0, IOPS: 1}, {At: 3 * time.Second, IOPS: 2}}, "past the horizon"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sp := churnSpec()
			sp.Churn = nil
			sp.Rates = tc.rates
			_, err := Run(sp)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestSingleStepRatesIdentity: a one-step rate schedule is the
// constant-rate run, field for field — the schedule machinery must not
// perturb a single RNG draw of the churn-off path.
func TestSingleStepRatesIdentity(t *testing.T) {
	t.Parallel()
	base := quickSpec()
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	sched := quickSpec()
	sched.Rates = []workload.RateStep{{At: 0, IOPS: 3000}} // serve's default rate
	stepped, err := Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, stepped) {
		t.Fatalf("single-step schedule diverges from constant rate:\nplain:   %+v\nstepped: %+v", plain, stepped)
	}
}

// TestChurnLifecycle: the plain-lane path — churned groups materialize,
// warm, serve, drain, and retire, with the recovery latencies and every
// ledger consistent.
func TestChurnLifecycle(t *testing.T) {
	t.Parallel()
	r, err := Run(churnSpec())
	if err != nil {
		t.Fatal(err)
	}
	if r.ChurnAdds != 2 || r.ChurnRemoves != 2 {
		t.Fatalf("churn counts: adds %d removes %d, want 2/2", r.ChurnAdds, r.ChurnRemoves)
	}
	// Warm-up recovery runs from the churn event to the lane's first
	// completion; arrivals only start after the 100ms warm-up.
	if r.WarmupP50 < 100*time.Millisecond || r.WarmupMax >= r.SimulatedDur {
		t.Fatalf("warm-up recovery %v..%v out of range", r.WarmupP50, r.WarmupMax)
	}
	if r.DrainMax >= r.SimulatedDur || r.ChurnDrainsBegun != r.ChurnDrains {
		t.Fatalf("drain recovery: %d of %d begun completed, max %v", r.ChurnDrains, r.ChurnDrainsBegun, r.DrainMax)
	}
	if r.Offered != r.Admitted+r.Rejected {
		t.Fatalf("admission ledger: offered %d != admitted %d + rejected %d", r.Offered, r.Admitted, r.Rejected)
	}
	if r.Completed == 0 || r.Completed > r.Admitted {
		t.Fatalf("completion ledger: completed %d of admitted %d", r.Completed, r.Admitted)
	}
	if !r.CapOK || !r.TrackOK {
		t.Fatalf("probes failed: cap=%v track=%v", r.CapOK, r.TrackOK)
	}
}

// TestChurnOffReportClean: without churn events the lifecycle fields
// stay zero — the report shape of every existing run is untouched.
func TestChurnOffReportClean(t *testing.T) {
	t.Parallel()
	sp := churnSpec()
	sp.Churn = nil
	r, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if r.ChurnAdds != 0 || r.ChurnRemoves != 0 || r.WarmupMax != 0 || r.DrainMax != 0 {
		t.Fatalf("churn accounting on a churn-off run: %+v", r)
	}
}

// TestChurnMoreShardsThanNewGroups: churned groups land on shards
// round-robin, so a one-group add with many shards must still work.
func TestChurnMoreShardsThanNewGroups(t *testing.T) {
	t.Parallel()
	sp := churnSpec()
	sp.Shards = 4
	sp.Churn = []ChurnEvent{
		{At: 500 * time.Millisecond, Profile: "SSD2", Add: 1, Warmup: 50 * time.Millisecond},
		{At: 1400 * time.Millisecond, Profile: "SSD2", Remove: 1},
	}
	r, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if r.ChurnAdds != 1 || r.ChurnRemoves != 1 {
		t.Fatalf("churn counts: adds %d removes %d, want 1/1", r.ChurnAdds, r.ChurnRemoves)
	}
}

// churnGroupSpec: a group-parked fleet under a diurnal schedule with a
// scale-out-then-drain-back cycle — the builtin churn scenario's shape
// at unit-test scale.
func churnGroupSpec() Spec {
	return Spec{
		Size:            32,
		Shards:          2,
		Horizon:         2 * time.Second,
		Seed:            7,
		CheckInvariants: true,
		Meso:            true,
		MesoGroupMin:    4,
		Rates: []workload.RateStep{
			{At: 0, IOPS: 3000},
			{At: 800 * time.Millisecond, IOPS: 1200},
			{At: 1600 * time.Millisecond, IOPS: 3000},
		},
		Churn: []ChurnEvent{
			{At: 500 * time.Millisecond, Profile: "SSD2", Add: 8, Warmup: 100 * time.Millisecond},
			{At: 1300 * time.Millisecond, Profile: "SSD2", Remove: 8},
		},
	}
}

// TestChurnGroupParked: churn through the virtualized-cohort tier —
// members join and leave as bucket count changes, warm-up is modeled,
// and every probe stays green.
func TestChurnGroupParked(t *testing.T) {
	t.Parallel()
	r, err := Run(churnGroupSpec())
	if err != nil {
		t.Fatal(err)
	}
	if r.ChurnAdds != 8 || r.ChurnRemoves != 8 {
		t.Fatalf("churn counts: adds %d removes %d, want 8/8", r.ChurnAdds, r.ChurnRemoves)
	}
	if r.MesoGroupLanes == 0 {
		t.Fatal("nothing virtualized")
	}
	// Virtual members report their modeled warm-up exactly.
	if r.WarmupP50 != 100*time.Millisecond {
		t.Fatalf("virtual warm-up p50 = %v, want the modeled 100ms", r.WarmupP50)
	}
	if r.DrainMax >= r.SimulatedDur || r.ChurnDrainsBegun != r.ChurnDrains {
		t.Fatalf("drain recovery: %d of %d begun completed, max %v", r.ChurnDrains, r.ChurnDrainsBegun, r.DrainMax)
	}
	if !r.CapOK || !r.TrackOK || !r.MesoDriftOK {
		t.Fatalf("probes failed: cap=%v track=%v drift=%v (worst %.4f)",
			r.CapOK, r.TrackOK, r.MesoDriftOK, r.MesoWorstDriftFrac)
	}
}

// TestChurnDrainsCountResidentOnly: drain recovery covers mechanistic
// drains only. A group-tier run whose removals all hit virtual members
// records no drain (their queues are analytic), while a fully resident
// run records one drain per removed group.
func TestChurnDrainsCountResidentOnly(t *testing.T) {
	t.Parallel()
	grp, err := Run(churnGroupSpec())
	if err != nil {
		t.Fatal(err)
	}
	if grp.ChurnRemoves == 0 || grp.ChurnDrains != 0 || grp.ChurnDrainsBegun != 0 || grp.DrainMax != 0 {
		t.Fatalf("all-virtual removals: %d removes, %d drains of %d begun (max %v), want 0 drains",
			grp.ChurnRemoves, grp.ChurnDrains, grp.ChurnDrainsBegun, grp.DrainMax)
	}
	res, err := Run(churnSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.ChurnRemoves == 0 || res.ChurnDrains != res.ChurnRemoves || res.ChurnDrainsBegun != res.ChurnDrains {
		t.Fatalf("fully resident run: %d removes, %d drains of %d begun, want one drain per removal",
			res.ChurnRemoves, res.ChurnDrains, res.ChurnDrainsBegun)
	}
}

// TestChurnDrainBegunOutlivesHorizon: the begun count is what makes
// the drain gate able to fail. A removal whose lane is held by a
// dropout runs past the horizon with a full queue, which nothing
// dispatches after serving stops: the drain begins but never completes,
// so ChurnDrains stays below ChurnDrainsBegun while DrainMax, which
// sees completed drains only, reads clean.
func TestChurnDrainBegunOutlivesHorizon(t *testing.T) {
	t.Parallel()
	sp := churnSpec()
	sp.Replicas = 1
	sp.Churn = []ChurnEvent{{At: 1800 * time.Millisecond, Profile: "SSD2", Remove: 1}}
	// Scale-in pops the highest group number: 7.
	sp.Faults = []DeviceFault{{Device: InstanceName("SSD2", 7), Windows: []fault.Window{
		{Kind: fault.Dropout, Start: 1500 * time.Millisecond, Dur: time.Second},
	}}}
	r, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if r.ChurnDrainsBegun != 1 || r.ChurnDrains != 0 || r.DrainMax != 0 {
		t.Fatalf("drains: %d of %d begun completed (max %v), want 0 of 1", r.ChurnDrains, r.ChurnDrainsBegun, r.DrainMax)
	}
}

// TestChurnDeterministic: bit-identical reports across GOMAXPROCS on
// the churning group-parked fleet — membership epochs, bucket count
// changes, and diurnal rate steps all ride the per-shard engines.
// Not parallel: detcheck pins GOMAXPROCS.
func TestChurnDeterministic(t *testing.T) {
	detcheck.Assert(t, func() (*Report, error) { return Run(churnGroupSpec()) }, detcheck.Config[*Report]{
		Procs: []int{1, 4, 8},
		Diff: func(t testing.TB, a, b *Report) {
			t.Logf("reference: %+v", a)
			t.Logf("divergent: %+v", b)
		},
	})
}

// TestChurnJoinOrderIndependence: churned lanes draw from fresh RNG
// roots keyed by group number, so adding groups in one event or across
// two events at the same times... cannot be asserted directly (events
// are distinct), but repeat runs of the same spec must agree exactly —
// the determinism half of the join-order contract.
func TestChurnRepeatable(t *testing.T) {
	t.Parallel()
	a, err := Run(churnSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(churnSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeat churn runs diverge:\n%+v\n%+v", a, b)
	}
}

// TestChurnDoesNotPerturbBaseFleet: the base lanes' arrival streams are
// keyed by lane identity, so scheduling churn must not change the
// offered load of the original fleet... the offered totals differ (the
// churned lanes add their own arrivals), but the churn-off run of the
// same spec must be byte-identical to never having had the fields.
func TestChurnDoesNotPerturbBaseFleet(t *testing.T) {
	t.Parallel()
	off := churnSpec()
	off.Churn = nil
	a, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	plain := Spec{
		Size:            8,
		Replicas:        2,
		Shards:          2,
		Horizon:         2 * time.Second,
		RateIOPS:        3000,
		Seed:            7,
		CheckInvariants: true,
	}
	b, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("churn-off run diverges from the plain spec:\n%+v\n%+v", a, b)
	}
}

// TestChurnWarmingLaneNeverParks: with the per-lane meso tier on and
// group parking off, a lane admitted by churn has no arrival stream
// until its warm-up ends, so it must stay barred from parking until
// warmAt (an idle warming lane looks steady). The run then agrees with
// its meso-off pair on energy within the drift tolerance, and every
// probe stays green.
func TestChurnWarmingLaneNeverParks(t *testing.T) {
	t.Parallel()
	const at, warmup = 500 * time.Millisecond, 800 * time.Millisecond
	sp := Spec{
		Profiles:        []string{"SSD2"},
		Size:            8,
		Shards:          1,
		Horizon:         3 * time.Second,
		Seed:            42,
		Meso:            true,
		CheckInvariants: true,
		Churn: []ChurnEvent{
			{At: at, Profile: "SSD2", Add: 2, Warmup: warmup},
			{At: 2 * time.Second, Profile: "SSD2", Remove: 2},
		},
	}

	s := buildOneShard(t, sp)
	base := len(s.lanes)
	checks := 0
	// Posted after build, so co-timed observers fire after the epoch.
	for tt := at; tt < at+warmup; tt += s.spec.ControlPeriod / 4 {
		s.eng.Post(tt, func() {
			for li := base; li < len(s.lanes); li++ {
				checks++
				if ml := s.meso.lanes[li]; ml.phase != mesoHydrated || ml.barredUntil != at+warmup {
					t.Errorf("at %v churned lane %d: phase %d, barred until %v (warm-up ends %v)",
						s.eng.Now(), li, ml.phase, ml.barredUntil, at+warmup)
				}
			}
		})
	}
	if err := guardShard(s.eng, func() error { _, err := s.run(); return err }); err != nil {
		t.Fatal(err)
	}
	if checks == 0 {
		t.Fatal("no churned lane was observed while warming")
	}

	on, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	offSpec := sp
	offSpec.Meso = false
	off, err := Run(offSpec)
	if err != nil {
		t.Fatal(err)
	}
	if on.MesoDehydrations == 0 {
		t.Fatal("nothing parked: the pair run compares nothing")
	}
	if d := math.Abs(on.AvgPowerW-off.AvgPowerW) / off.AvgPowerW; d > s.spec.MesoDriftTolFrac {
		t.Fatalf("meso-on %.2f W vs meso-off %.2f W: %.2f%% apart, tolerance %.0f%%",
			on.AvgPowerW, off.AvgPowerW, 100*d, 100*s.spec.MesoDriftTolFrac)
	}
	if !on.CapOK || !on.TrackOK || !on.MesoDriftOK {
		t.Fatalf("probes failed: cap=%v track=%v drift=%v (worst %.4f)",
			on.CapOK, on.TrackOK, on.MesoDriftOK, on.MesoWorstDriftFrac)
	}
}
