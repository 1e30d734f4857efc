package serve

import "sort"

// Budget planning: every shard plans by bulk allocation over
// per-profile concave hulls, whether its cohorts have virtual members
// (Spec.MesoGroupMin) or are fully resident. Members of a cohort are
// interchangeable, so a plan is just a count per operating level — the
// planner's work is O(#cohorts × #levels), not O(#lanes), and a budget
// step moves whole buckets at once.

// hullLevel is one operating level on a profile's concave hull: the
// planning power state and the per-device planning draw/throughput.
type hullLevel struct {
	level  int // planning-table power state
	powerW float64
	tputMB float64
}

// profileHulls maps each profile to the upper concave envelope of its
// planning points, sorted by increasing power. Greedy marginal-
// efficiency allocation is optimal on a concave frontier, so levels
// strictly inside the envelope (better served by mixing its neighbors
// across the cohort) are dropped. Built once at init from the static
// planning table.
var profileHulls = func() map[string][]hullLevel {
	out := make(map[string][]hullLevel, len(planningTable))
	for p, points := range planningTable {
		out[p] = concaveHull(points)
	}
	return out
}()

// concaveHull returns the upper concave envelope of a profile's
// planning points: Pareto-filter (drop any point with no throughput
// gain over a cheaper one), then drop points under the chord of their
// neighbors so marginal efficiency decreases along the hull.
func concaveHull(points []planPoint) []hullLevel {
	sorted := make([]planPoint, len(points))
	copy(sorted, points)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].powerW != sorted[j].powerW {
			return sorted[i].powerW < sorted[j].powerW
		}
		return sorted[i].tputMB > sorted[j].tputMB
	})
	var hull []hullLevel
	for _, pt := range sorted {
		if len(hull) > 0 && pt.tputMB <= hull[len(hull)-1].tputMB {
			continue // dominated: no throughput for the extra power
		}
		h := hullLevel{level: pt.ps, powerW: pt.powerW, tputMB: pt.tputMB}
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// b is under the a→h chord when its marginal efficiency
			// from a is no better than h's.
			if (b.tputMB-a.tputMB)*(h.powerW-a.powerW) <= (h.tputMB-a.tputMB)*(b.powerW-a.powerW) {
				hull = hull[:len(hull)-1]
				continue
			}
			break
		}
		hull = append(hull, h)
	}
	return hull
}

// cohortDemand is one cohort's input to the bulk allocator.
type cohortDemand struct {
	hull  []hullLevel
	count int
	// laneScale converts a hull level's per-device draw to a lane draw
	// (Replicas: spares hold planned states and draw power too, exactly
	// as per-device control plans them).
	laneScale float64
}

// planShares allocates lane counts to hull levels across cohorts under
// a shard power slice: every lane starts at its cohort's lowest-power
// level, then the remaining budget buys upgrades rung by rung in global
// marginal-efficiency order. Returns one count-per-hull-level slice per
// cohort, or ok=false when even the all-minimum allocation exceeds the
// slice. Deterministic: ties in efficiency break by cohort then rung
// index. O(Σ levels · log) — independent of lane count.
//
// Optimality bound: this is the greedy solution of the LP relaxation of
// the multiple-choice knapsack over the hulls. It matches the LP
// optimum except for the one rung it can afford only part of, so its
// planned throughput is at least the exact optimum (any per-device
// assignment of planning-table points within the slice) minus the
// largest single-rung gain, per-lane ΔT × laneScale. Feasibility is
// exact: ok is false only when the all-minimum draw exceeds the slice.
// TestPlanSharesMatchesFleetOracle checks all three against core.Fleet.
func planShares(cohorts []cohortDemand, sliceW float64) (dist [][]int, ok bool) {
	dist = make([][]int, len(cohorts))
	base := 0.0
	for ci, c := range cohorts {
		dist[ci] = make([]int, len(c.hull))
		dist[ci][0] = c.count
		base += c.hull[0].powerW * c.laneScale * float64(c.count)
	}
	if base > sliceW {
		return nil, false
	}
	rem := sliceW - base

	type rung struct {
		ci, j  int
		dW, dT float64 // per-lane upgrade cost and gain, hull[j] → hull[j+1]
		eff    float64
	}
	var rungs []rung
	for ci, c := range cohorts {
		for j := 0; j+1 < len(c.hull); j++ {
			dW := (c.hull[j+1].powerW - c.hull[j].powerW) * c.laneScale
			dT := (c.hull[j+1].tputMB - c.hull[j].tputMB) * float64(c.laneScale)
			rungs = append(rungs, rung{ci: ci, j: j, dW: dW, dT: dT, eff: dT / dW})
		}
	}
	sort.Slice(rungs, func(i, j int) bool {
		if rungs[i].eff != rungs[j].eff {
			return rungs[i].eff > rungs[j].eff
		}
		if rungs[i].ci != rungs[j].ci {
			return rungs[i].ci < rungs[j].ci
		}
		return rungs[i].j < rungs[j].j
	})
	for _, r := range rungs {
		avail := dist[r.ci][r.j]
		if avail == 0 || rem < r.dW {
			continue
		}
		n := int(rem / r.dW)
		if n > avail {
			n = avail
		}
		dist[r.ci][r.j] -= n
		dist[r.ci][r.j+1] += n
		rem -= float64(n) * r.dW
	}
	return dist, true
}
