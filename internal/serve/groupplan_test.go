package serve

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"wattio/internal/core"
	"wattio/internal/fault"
	"wattio/internal/meso"
	"wattio/internal/sim"
)

// buildOneShard builds a single-shard spec's only shard on a fresh
// engine, so a test can post observers at chosen instants before
// running it.
func buildOneShard(t *testing.T, spec Spec) *shard {
	t.Helper()
	spec.Shards = 1
	sp, err := spec.normalized()
	if err != nil {
		t.Fatal(err)
	}
	rg := []shardRange{{g0: 0, g1: sp.Size / sp.Replicas}}
	s, err := buildShard(&sp, sim.NewEngine(), 0, rg[0], churnFor(compileChurn(&sp, rg), 0))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// oracleModel is one device instance's exact planning model: every
// planning-table point, hull or not.
func oracleModel(t *testing.T, profile, instance string) *core.Model {
	t.Helper()
	var samples []core.Sample
	for _, p := range planningTable[profile] {
		samples = append(samples, core.Sample{
			Config: core.Config{
				Device:     instance,
				PowerState: p.ps,
				Random:     true,
				Write:      true,
				ChunkBytes: 256 << 10,
				Depth:      64,
			},
			PowerW:         p.powerW,
			ThroughputMBps: p.tputMB,
		})
	}
	m, err := core.NewModel(instance, samples)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPlanSharesMatchesFleetOracle checks the hull planner against the
// exact per-device Pareto merge (core.Fleet) on random small fleets: at
// most 3 cohorts of at most 6 lanes, 1–2 replicas, budgets from just
// under the all-minimum draw to 1.05× the all-top draw. Feasibility
// agrees (except within 1e-9 relative of the all-minimum draw, where
// the two sum in different orders), the plan fits the budget, and its
// throughput is at least the exact optimum minus the largest single-rung
// gain — the bound stated on planShares.
func TestPlanSharesMatchesFleetOracle(t *testing.T) {
	t.Parallel()
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	profiles := KnownProfiles()
	rng := rand.New(rand.NewPCG(12, 0x9e3779b9))
	worst := 0.0
	for n := 0; n < cases; n++ {
		replicas := 1 + rng.IntN(2)
		var demands []cohortDemand
		var models []*core.Model
		var minW, topW, maxRung float64
		for _, p := range rng.Perm(len(profiles))[:1+rng.IntN(3)] {
			profile := profiles[p]
			hull := profileHulls[profile]
			lanes := 1 + rng.IntN(6)
			demands = append(demands, cohortDemand{hull: hull, count: lanes, laneScale: float64(replicas)})
			for d := 0; d < lanes*replicas; d++ {
				models = append(models, oracleModel(t, profile, InstanceName(profile, len(models))))
			}
			devs := float64(lanes * replicas)
			minW += hull[0].powerW * devs
			topW += hull[len(hull)-1].powerW * devs
			for j := 0; j+1 < len(hull); j++ {
				maxRung = math.Max(maxRung, (hull[j+1].tputMB-hull[j].tputMB)*float64(replicas))
			}
		}
		lo := 0.99 * minW
		budget := lo + rng.Float64()*(1.05*topW-lo)
		if rng.IntN(8) == 0 {
			budget = minW // the feasibility boundary itself
		}
		fleet, err := core.NewFleet(models...)
		if err != nil {
			t.Fatal(err)
		}
		exact, exactOK := fleet.BestUnderPower(budget)
		dist, ok := planShares(demands, budget)
		if ok != exactOK {
			if math.Abs(budget-minW) <= 1e-9*minW {
				continue
			}
			t.Fatalf("case %d: feasibility %v, oracle %v (budget %.6f W, all-minimum %.6f W)", n, ok, exactOK, budget, minW)
		}
		if !ok {
			continue
		}
		var powerW, tputMB float64
		for ci, d := range demands {
			members := 0
			for j, k := range dist[ci] {
				members += k
				powerW += float64(k) * d.hull[j].powerW * d.laneScale
				tputMB += float64(k) * d.hull[j].tputMB * d.laneScale
			}
			if members != d.count {
				t.Fatalf("case %d: cohort %d plans %d of %d lanes", n, ci, members, d.count)
			}
		}
		if powerW > budget*(1+1e-12) {
			t.Fatalf("case %d: plan draws %.6f W over the %.6f W budget", n, powerW, budget)
		}
		gap := exact.TotalMBps - tputMB
		if gap > maxRung+1e-9*exact.TotalMBps {
			t.Fatalf("case %d: plan %.3f MB/s trails the optimum %.3f MB/s by more than one rung (%.3f MB/s)",
				n, tputMB, exact.TotalMBps, maxRung)
		}
		if maxRung > 0 {
			worst = math.Max(worst, gap/maxRung)
		}
	}
	t.Logf("worst gap %.3f of the one-rung bound over %d cases", worst, cases)
}

// plannedW is a shard's total planned draw: resident devices at their
// planned (or reserved) draws plus every virtual member at its bucket's
// hull level.
func plannedW(s *shard) float64 {
	r := s.spec.Replicas
	var w float64
	for li := range s.lanes {
		if s.grp.laneGone(li) {
			continue
		}
		for di := li * r; di < (li+1)*r; di++ {
			w += s.grp.planW[di]
		}
	}
	for _, c := range s.grp.cohorts {
		for _, h := range c.hull {
			w += float64(s.grp.pool.Count(meso.GroupKey{Cohort: c.pi, State: h.level})) * h.powerW * float64(r)
		}
	}
	return w
}

// TestCompensationReservesStuckLane: a scripted power-cmd-fail window
// across a budget step makes one lane refuse its re-plan command. The
// step to 9.9 W per device leaves room for one lane at SSD2's top hull
// level, which the coverage pass gives a probe, so the faulted lane
// (assigned last) is asked to step down from the top state the initial
// plan left it in. With group parking off and on, the planner holds the
// lane at its 14.4 W stuck estimate, reserves that draw, re-plans the
// rest within the slice, and counts the extra pass.
func TestCompensationReservesStuckLane(t *testing.T) {
	t.Parallel()
	const stuckGroup = 5
	for _, group := range []bool{false, true} {
		group := group
		t.Run(fmt.Sprintf("group=%v", group), func(t *testing.T) {
			t.Parallel()
			sp := Spec{
				Size:            32,
				Horizon:         2 * time.Second,
				Seed:            3,
				CheckInvariants: true,
				Budget:          []BudgetStep{{At: 0, FleetW: 32 * 14.6}, {At: time.Second, FleetW: 32 * 9.9}},
				Faults: []DeviceFault{{Device: InstanceName("SSD2", stuckGroup), Windows: []fault.Window{
					{Kind: fault.PowerCmdFail, Start: 800 * time.Millisecond, Dur: 700 * time.Millisecond},
				}}},
			}
			if group {
				sp.Meso, sp.MesoGroupMin = true, 8
			}
			s := buildOneShard(t, sp)
			checked := false
			// Posted after build, so it fires after the step's re-plan —
			// and, with group parking on, after the faulted member's
			// fault span materialized it at 700 ms.
			s.eng.Post(time.Second, func() {
				checked = true
				li := -1
				for i, g := range s.laneGroup {
					if g == stuckGroup {
						li = i
					}
				}
				if li < 0 {
					t.Error("faulted group did not materialize")
					return
				}
				if got := s.grp.planW[li]; got != 14.4 {
					t.Errorf("stuck lane planned at %.2f W, want its 14.4 W stuck estimate", got)
				}
				if got, slice := plannedW(s), 32*9.9; got > slice {
					t.Errorf("plan draws %.2f W over the %.2f W slice", got, slice)
				}
			})
			res, err := s.run()
			if err != nil {
				t.Fatal(err)
			}
			if !checked {
				t.Fatal("observer never ran")
			}
			if res.Compensations == 0 || !res.CapOK || res.Infeasible != 0 {
				t.Fatalf("compensations %d, cap OK %v, infeasible %d", res.Compensations, res.CapOK, res.Infeasible)
			}
		})
	}
}
