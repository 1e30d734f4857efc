package serve

import (
	"fmt"
	"time"

	"wattio/internal/adaptive"
	"wattio/internal/sim"
	"wattio/internal/workload"
)

// Lane lifecycle (Spec.Churn): the fleet is no longer a static set.
// Replica groups admitted by a churn event move through
//
//	pending --(event At)--> warming --(At+Warmup)--> active
//	active  --(remove At)-> draining --(queue+inflight empty)--> removed
//
// The schedule is compiled once, spec-side, into per-shard epochs
// before any shard runs: which global group numbers join or leave,
// which shard owns each, and the live device counts after every event.
// Shards therefore never communicate — each sees the same epoch
// timeline and takes only its own membership changes, so reports stay
// bit-identical at any GOMAXPROCS. Churned lanes draw their randomness
// from fresh RNG roots keyed by global group number, never from the
// shard's build-time stream, so admission order cannot perturb any
// existing lane's draws and a group's behavior is independent of when
// it joins.
//
// With Spec.Churn empty, compileChurn returns nil and no code path in
// this file runs: the static-fleet path is byte-identical to before.

// laneAdd is one compiled scale-out member: a fresh global replica
// group number and its profile index.
type laneAdd struct {
	g  int
	pi int
}

// churnRemove is one compiled scale-in member. warming marks a group
// removed before its warm-up completed (it never served traffic).
type churnRemove struct {
	g       int
	pi      int
	warming bool
}

// churnEpoch is one churn event as seen by one shard: the shard's own
// membership changes plus the fleet-wide and shard-live device counts
// after the event — every shard gets an epoch per event, because the
// budget-slice denominator changes for all of them.
type churnEpoch struct {
	at     time.Duration
	warmAt time.Duration
	// live and fleetLive are the shard's and the fleet's live device
	// counts after this event (warming members included: they hold
	// budget share from admission).
	live      int
	fleetLive int
	adds      []laneAdd
	removes   []churnRemove
}

// shardChurn is one shard's compiled epoch timeline.
type shardChurn struct {
	epochs []churnEpoch
}

// laneLife is one materialized lane's lifecycle state.
type laneLife struct {
	// removing marks a lane draining toward retirement; dead marks the
	// drain complete (devices retired, energy frozen). churnDrain marks
	// a scale-in removal's drain — not a fault-window member's drain back
	// into its bucket — whose recovery latency the report records.
	// warmPending marks a churned lane whose first completion will
	// record its warm-up recovery latency.
	removing, dead, churnDrain, warmPending bool
	drainFrom, warmFrom                     time.Duration
}

// compileChurn lowers the spec's churn schedule into per-shard epochs.
// Scale-out allocates fresh, never-reused group numbers round-robined
// across shards; scale-in pops the highest-numbered live group of the
// event's profile (newest first), so removal targets are deterministic
// functions of the spec alone. Returns nil when the spec has no churn.
func compileChurn(sp *Spec, ranges []shardRange) []*shardChurn {
	if len(sp.Churn) == 0 {
		return nil
	}
	P := len(sp.Profiles)
	groups0 := sp.Size / sp.Replicas
	out := make([]*shardChurn, len(ranges))
	for i := range out {
		out[i] = &shardChurn{}
	}
	shardOf := func(g int) int {
		if g < groups0 {
			for si, rg := range ranges {
				if g >= rg.g0 && g < rg.g1 {
					return si
				}
			}
		}
		return g % len(ranges)
	}
	// Live group stacks per profile, ascending; removals pop the top.
	stacks := make([][]int, P)
	for g := 0; g < groups0; g++ {
		stacks[g%P] = append(stacks[g%P], g)
	}
	warmAt := map[int]time.Duration{}
	perLive := make([]int, len(ranges))
	for si, rg := range ranges {
		perLive[si] = (rg.g1 - rg.g0) * sp.Replicas
	}
	fleetLive := sp.Size
	next := groups0
	for _, ev := range sp.Churn {
		pi := 0
		for j, p := range sp.Profiles {
			if p == ev.Profile {
				pi = j
				break
			}
		}
		wa := ev.At + ev.Warmup
		for si := range out {
			out[si].epochs = append(out[si].epochs, churnEpoch{at: ev.At, warmAt: wa})
		}
		ep := func(si int) *churnEpoch {
			eps := out[si].epochs
			return &eps[len(eps)-1]
		}
		for k := 0; k < ev.Add; k++ {
			g := next
			next++
			stacks[pi] = append(stacks[pi], g)
			warmAt[g] = wa
			si := shardOf(g)
			e := ep(si)
			e.adds = append(e.adds, laneAdd{g: g, pi: pi})
			perLive[si] += sp.Replicas
			fleetLive += sp.Replicas
		}
		for k := 0; k < ev.Remove; k++ {
			st := stacks[pi]
			g := st[len(st)-1]
			stacks[pi] = st[:len(st)-1]
			// A group popped before its warm event fired never served;
			// equality means the warm event ran first (posts at the same
			// instant fire in registration order, earlier events first).
			warming := warmAt[g] > ev.At
			delete(warmAt, g)
			si := shardOf(g)
			e := ep(si)
			e.removes = append(e.removes, churnRemove{g: g, pi: pi, warming: warming})
			perLive[si] -= sp.Replicas
			fleetLive -= sp.Replicas
		}
		for si := range out {
			e := ep(si)
			e.fleetLive = fleetLive
			e.live = perLive[si]
		}
	}
	return out
}

// churnFor returns shard i's compiled timeline (nil when churn is off).
func churnFor(ch []*shardChurn, i int) *shardChurn {
	if ch == nil {
		return nil
	}
	return ch[i]
}

// laneRateIOPS is the per-lane offered rate in force at now: the rate
// schedule's binding step (or the flat RateIOPS) times the active
// replica count.
func (s *shard) laneRateIOPS(now time.Duration) float64 {
	r := s.spec.RateIOPS
	for _, rs := range s.spec.Rates {
		if rs.At <= now {
			r = rs.IOPS
		}
	}
	return r * float64(s.spec.Active)
}

// startLaneArrivals (re)starts lane i's open-loop arrival process on
// its retained stream for the remaining horizon — flat-rate when the
// spec has no schedule (byte-identical to the original path), else on
// the precomputed per-lane rate schedule, which picks up whichever step
// is in force at the current instant. No-op when the horizon has
// passed.
func (s *shard) startLaneArrivals(i int) error {
	sp := s.spec
	now := s.eng.Now()
	l := s.lanes[i]
	if len(s.laneRates) == 0 {
		remaining := sp.Horizon - now
		if remaining <= 0 {
			return nil
		}
		a, err := workload.StartArrivals(s.eng, s.astreams[i], sp.Arrival,
			sp.RateIOPS*float64(sp.Active), remaining, l.arrive, nil)
		if err != nil {
			return err
		}
		s.arrs[i] = a
		return nil
	}
	if now >= sp.Horizon {
		return nil
	}
	a, err := workload.StartArrivalsSchedule(s.eng, s.astreams[i], sp.Arrival,
		s.laneRates, sp.Horizon, l.arrive, nil)
	if err != nil {
		return err
	}
	s.arrs[i] = a
	return nil
}

// rateStep handles one rate-schedule boundary: parked lanes rehydrate
// (their aggregates' operating points describe the old rate), the group
// pool settles its IO integration at the old rate, and calibrated
// serving buckets are invalidated so probes re-measure under the new
// load. Continuing mechanistic arrival processes handle the boundary
// internally.
func (s *shard) rateStep(rs workload.RateStep) {
	now := s.eng.Now()
	if s.meso != nil {
		s.meso.rehydrateAll()
		// The offered load just changed discontinuously: a steady dwell
		// accumulated at the old rate must never calibrate an operating
		// point for the new one, so every live lane's window restarts
		// here. (rehydrateAll only resets the lanes it rehydrates;
		// already-hydrated lanes would otherwise straddle the boundary.)
		for i := range s.meso.lanes {
			if s.lc != nil && (s.lc[i].removing || s.lc[i].dead) {
				continue
			}
			s.meso.resetBaseline(i)
		}
	}
	s.grp.pool.SetRate(rs.IOPS*float64(s.spec.Active), now)
	s.grp.pool.Recalibrate(now)
}

// admitLane materializes replica group g mid-run as a resident lane of
// cohort pi, built from st: devices (with any pre-drawn fault),
// redirector, governors at the profile's top draw, and a meso entry
// barred from parking until barUntil. Churn admits fresh groups of
// fully resident cohorts this way, and a virtualized cohort's faulted
// member opens its fault span this way. Arrivals do not start here.
func (s *shard) admitLane(g, pi int, st *laneStreams, barUntil time.Duration) (int, error) {
	sp := s.spec
	d0 := len(s.devs)
	li, err := s.buildLane(g, pi, st)
	if err != nil {
		return 0, err
	}
	s.astreams = append(s.astreams, st.arr)
	s.arrs = append(s.arrs, nil)
	s.lc = append(s.lc, laneLife{})
	s.grp.addResident(li, pi)
	for di := d0; di < len(s.devs); di++ {
		d := s.devs[di]
		if len(d.PowerStates()) < 2 {
			s.govs = append(s.govs, nil)
			continue
		}
		gv, err := adaptive.NewGovernor(s.eng, d, s.planBudget(di), sp.ControlPeriod)
		if err != nil {
			return 0, err
		}
		gv.Start()
		s.govs = append(s.govs, gv)
	}
	if s.meso != nil {
		s.meso.addLane(li, barUntil)
	}
	return li, nil
}

// admitChurned admits one scale-out group into its fully resident
// cohort. Its streams come from a fresh RNG root keyed by the global
// group number, so the lane's behavior is independent of join order and
// of every other lane's stream position. Churned lanes take no fault
// injection: the fault draw pass covers the build-time fleet. The warm
// event at warmAt starts its arrivals, and the meso tier bars the lane
// from parking until then.
func (s *shard) admitChurned(ad laneAdd, at, warmAt time.Duration) error {
	lrng := sim.NewRNG(s.spec.Seed ^ shardHash("serve/churn", ad.g))
	st := drawLaneStreams(s.spec, lrng, ad.pi, ad.g)
	st.arr = lrng.Stream("arrivals")
	s.grp.cohorts[ad.pi].count++
	li, err := s.admitLane(ad.g, ad.pi, st, warmAt)
	if err != nil {
		return err
	}
	s.lc[li].warmFrom = at
	return nil
}

// openSpan materializes faulted member fs at its span's boundary: a
// resident lane on its stashed streams takes one member from its
// cohort's buckets (adopt) and starts serving, barred from parking
// until its last window closes. Nothing happens when a churn removal
// took the member first.
func (s *shard) openSpan(fs *faultSpan) {
	if !fs.pending {
		return
	}
	fs.pending = false
	li, err := s.admitLane(fs.g, fs.pi, fs.st, fs.end)
	if err != nil {
		panic(fmt.Sprintf("serve: fault span of group %d: %v", fs.g, err))
	}
	s.grp.adopt(li, s.eng.Now())
	if err := s.startLaneArrivals(li); err != nil {
		panic(fmt.Sprintf("serve: fault span of group %d: %v", fs.g, err))
	}
}

// repark closes fault-window lane li's span at its first clean boundary
// past its last window: its member returns to the bucket of the level
// it holds, so the offered load continues analytically without a gap,
// while the lane stops arrivals, drains its in-flight IO, and retires
// like a churn removal — without counting as one.
func (s *shard) repark(li int, now time.Duration) {
	delete(s.groupLane, s.laneGroup[li])
	s.grp.release(li, now)
	s.beginRemove(li, now, false)
}

// beginRemove starts draining lane li: its budget share is gone (a
// churn caller re-plans without it, a re-park has already returned it
// to its bucket), arrivals stop, and the lane serves out its queued and
// in-flight work before retiring. A parked lane settles its aggregate
// first; an empty lane retires on the spot. churn marks a scale-in
// removal, whose drain the report counts.
func (s *shard) beginRemove(li int, now time.Duration, churn bool) {
	lf := &s.lc[li]
	lf.removing = true
	lf.churnDrain = churn
	lf.drainFrom = now
	if churn {
		s.res.ChurnDrainsBegun++
	}
	if s.meso != nil {
		s.meso.evict(li, now)
	}
	if a := s.arrs[li]; a != nil {
		a.Stop()
	}
	if l := s.lanes[li]; l.inflight == 0 && l.qlen() == 0 {
		s.retireLane(li, now)
	}
}

// retireLane completes a drain: governors stop, each device's meter is
// frozen into retiredJ (the shard's energy stays continuous — removed
// devices just stop drawing), and a churn drain's recovery latency
// lands in the shard result.
func (s *shard) retireLane(li int, now time.Duration) {
	lf := &s.lc[li]
	if lf.dead {
		return
	}
	lf.dead = true
	r := s.spec.Replicas
	for di := li * r; di < (li+1)*r; di++ {
		if gv := s.govs[di]; gv != nil {
			gv.Stop()
		}
		s.retiredJ += s.devs[di].EnergyJ()
		s.devDead[di] = true
	}
	if lf.churnDrain {
		s.res.DrainLats = append(s.res.DrainLats, now-lf.drainFrom)
	}
}

// laneCompleted runs on every request completion while the lifecycle is
// active: the first completion of a freshly warmed lane records its
// warm-up recovery latency, and a draining lane retires the moment its
// last work finishes.
func (s *shard) laneCompleted(l *lane, now time.Duration) {
	lf := &s.lc[l.idx]
	if lf.warmPending {
		lf.warmPending = false
		s.res.WarmupLats = append(s.res.WarmupLats, now-lf.warmFrom)
	}
	if lf.removing && !lf.dead && l.inflight == 0 && l.qlen() == 0 {
		s.retireLane(l.idx, now)
	}
}

// churnEpoch executes one membership epoch: rehydrate the analytic
// tier, apply this shard's adds then removes, adopt the new live
// counts, and re-plan under the budget in force. A zero-warm-up event
// warms its adds inline before the re-plan, so the epoch's single plan
// already serves them.
func (s *shard) churnEpoch(ep churnEpoch) {
	now := s.eng.Now()
	if s.meso != nil {
		s.meso.rehydrateAll()
	}
	for _, ad := range ep.adds {
		if s.grp.cohorts[ad.pi].virtual {
			s.grp.addVirtual(ad, ep.at, ep.warmAt, now)
		} else if err := s.admitChurned(ad, ep.at, ep.warmAt); err != nil {
			panic(fmt.Sprintf("serve: churn admission of group %d: %v", ad.g, err))
		}
	}
	for _, rm := range ep.removes {
		s.grp.removeMember(rm, now)
	}
	s.res.ChurnAdds += len(ep.adds)
	s.res.ChurnRemoves += len(ep.removes)
	s.liveDevs = ep.live
	s.fleetLive = ep.fleetLive
	if len(ep.adds) > 0 && ep.warmAt == ep.at {
		s.warmTransition(ep, now)
	}
	s.grp.apply(budgetAt(s.spec.Budget, now))
}

// warmEpoch fires when a churn event's warm-up window closes: the
// epoch's surviving adds start serving traffic and the shard re-plans
// so the fresh capacity holds real power states.
func (s *shard) warmEpoch(ep churnEpoch) {
	now := s.eng.Now()
	if s.meso != nil {
		s.meso.rehydrateAll()
	}
	s.warmTransition(ep, now)
	s.grp.apply(budgetAt(s.spec.Budget, now))
}

// warmTransition moves an epoch's adds (all of one cohort) from warming
// to active: virtual cohort members leave the warm bucket for the
// serving distribution, resident lanes start their arrival processes
// (first completion records the warm-up recovery latency). Members
// removed while still warming are skipped — they never serve.
func (s *shard) warmTransition(ep churnEpoch, now time.Duration) {
	if len(ep.adds) == 0 {
		return
	}
	if pi := ep.adds[0].pi; s.grp.cohorts[pi].virtual {
		s.grp.warmBatchDone(pi, ep.at, ep.warmAt, now)
		return
	}
	for _, ad := range ep.adds {
		li := s.groupLane[ad.g]
		lf := &s.lc[li]
		if lf.removing || lf.dead {
			continue
		}
		lf.warmPending = true
		if err := s.startLaneArrivals(li); err != nil {
			panic(fmt.Sprintf("serve: churn warm-up of group %d: %v", ad.g, err))
		}
		if s.meso != nil {
			s.meso.resetBaseline(li)
		}
	}
}
