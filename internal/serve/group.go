package serve

import (
	"fmt"
	"time"

	"wattio/internal/device"
	"wattio/internal/fault"
	"wattio/internal/meso"
	"wattio/internal/sim"
	"wattio/internal/telemetry/invariant"
)

// Cohorts: a shard's lanes of one profile form a cohort of
// interchangeable members, and every shard plans and decides residency
// through them. With group parking on (Spec.MesoGroupMin), big cohorts
// keep only a few resident probe lanes in mechanistic simulation, plus
// each fault-injected member for its fault window alone (faultSpan);
// the rest are virtual — no devices, no governors, no arrival streams —
// accounted by meso.GroupPool buckets keyed (cohort, power state).
// Otherwise every member is resident and the pool stays empty.
// Planning happens on shared per-profile concave hulls (groupplan.go)
// in O(#buckets + #residents); probes donate measured operating points
// to their bucket when they park, and the energy the virtual population
// accrued before its first calibration is backfilled retroactively into
// the shard's interval accounting — always from a measurement, with the
// planning table only as a settle-time fallback for buckets no probe
// ever reached.
//
// Everything runs on the shard's single goroutine and virtual clock, so
// the determinism contract is untouched: same spec, same report, at any
// GOMAXPROCS.

// preFault is one pre-drawn fault outcome: the windows and the
// instance's retained fault stream (the inject sub-stream must derive
// from the same position the draw left it at).
type preFault struct {
	wins []fault.Window
	ds   *sim.RNG
}

// faultSpan is one faulted member of a virtualized cohort. It is
// resident only from `at` — the last control boundary before its first
// fault window opens, or build when that is 0 — until its first clean
// boundary past `end`, its last window's close; otherwise it is an
// ordinary virtual member of its cohort's buckets. st holds the lane's
// RNG streams, drawn at the member's build-order position so that no
// other lane's draws shift. pending marks a member still waiting for
// `at`; a churn removal before then clears it, and the member never
// materializes.
type faultSpan struct {
	g, pi   int
	at, end time.Duration
	st      *laneStreams
	pending bool
}

// warmBatch is one churn event's warming virtual members of a cohort:
// admitted at `at`, serving from warmAt, n members still warming.
// Removals of warming members decrement the newest non-empty batch —
// scale-in pops the highest group numbers, which the newest batch owns.
type warmBatch struct {
	at, warmAt time.Duration
	n          int
}

// groupCohort is one profile's member set within a shard.
type groupCohort struct {
	pi      int // profile index — the global cohort id
	profile string
	count   int // members in this shard, residents included
	hull    []hullLevel
	// virtual marks a cohort big enough to virtualize members; churn
	// adds to it join as virtual members, adds to a fully resident
	// cohort materialize as lanes.
	virtual bool

	// resOrder lists resident lane indices, probes first (they can park
	// and calibrate) then barred members (faulted); resLevel is each
	// resident's current hull index. probes is the probe prefix length.
	resOrder []int
	resLevel []int
	probes   int

	// warming counts virtual members admitted by churn whose warm-up
	// has not completed: they sit in the cohort's idle bucket (counted
	// in `count`, drawing power, serving nothing) and are excluded from
	// the serving distribution until their batch's warm event fires.
	warming     int
	warmBatches []warmBatch
}

type groupState struct {
	s    *shard
	pool *meso.GroupPool

	// buildGroups is the ascending list of resident replica-group
	// numbers buildShard draws streams for — the faulted members of
	// virtualized cohorts included, though most of those materialize
	// later (spans, by group number); pre holds pre-drawn faults by
	// device index.
	buildGroups []int
	pre         map[int]*preFault
	spans       map[int]*faultSpan

	cohorts    []groupCohort // indexed by profile index
	laneCohort []int         // lane -> profile index
	laneResIdx []int         // lane -> position in its cohort's resOrder
	// planW is each resident device's planned draw, its governor
	// target: the profile's top draw until a plan assigns it.
	planW   []float64
	applied bool
}

// planGroups decides residency for every member of the shard's slice
// and pre-draws faults, before any device exists. Residents are the
// first MesoProbes non-faulted members of each virtualized cohort plus
// every faulted member, which holds a faultSpan; a cohort virtualizes
// only when group parking is on and it has at least MesoGroupMin
// members, otherwise it stays fully resident. Fault draws run for ALL
// members in ascending instance order, so the draw each member receives
// is independent of how many end up materialized.
func planGroups(s *shard, frng *sim.RNG, rg shardRange, scripted map[string][]fault.Window) *groupState {
	sp := s.spec
	g2 := &groupState{s: s, pre: map[int]*preFault{}, spans: map[int]*faultSpan{}}
	g2.pool = meso.NewGroupPool(sp.RateIOPS*float64(sp.Active), sp.ChunkBytes)

	P := len(sp.Profiles)
	faultedGroup := make(map[int]bool)
	if sp.FaultFrac > 0 || len(scripted) > 0 {
		for g := rg.g0; g < rg.g1; g++ {
			profile := sp.Profiles[g%P]
			for rep := 0; rep < sp.Replicas; rep++ {
				gi := g*sp.Replicas + rep
				name := InstanceName(profile, gi)
				ds := frng.Stream(name)
				if wins, faulted := drawFault(sp, ds, scripted, name); faulted {
					g2.pre[gi] = &preFault{wins: wins, ds: ds}
					faultedGroup[g] = true
				}
			}
		}
	}
	s.res.Faulted = len(g2.pre)

	g2.cohorts = make([]groupCohort, P)
	resident := make(map[int]bool)
	for pi := 0; pi < P; pi++ {
		c := &g2.cohorts[pi]
		c.pi, c.profile, c.hull = pi, sp.Profiles[pi], profileHulls[sp.Profiles[pi]]
		// Members of cohort pi are the g ≡ pi (mod P) in [g0, g1) —
		// membership is arithmetic, never a per-member list.
		first := rg.g0 + ((pi-rg.g0%P)%P+P)%P
		for g := first; g < rg.g1; g += P {
			c.count++
		}
		if c.count == 0 {
			continue
		}
		c.virtual = sp.MesoGroupMin > 0 && c.count >= sp.MesoGroupMin
		probes := 0
		for g := first; g < rg.g1; g += P {
			switch {
			case !c.virtual:
				resident[g] = true
			case faultedGroup[g]:
				resident[g] = true
				g2.spans[g] = g2.newSpan(g, pi)
			case probes < sp.MesoProbes:
				resident[g] = true
				probes++
			}
		}
	}
	for g := rg.g0; g < rg.g1; g++ {
		if resident[g] {
			g2.buildGroups = append(g2.buildGroups, g)
		}
	}
	return g2
}

// faultWindow spans replica group gnum's pre-drawn fault windows: the
// earliest start and the latest end over its replicas. ok is false for
// an unfaulted group.
func (g *groupState) faultWindow(gnum int) (start, end time.Duration, ok bool) {
	r := g.s.spec.Replicas
	for gi := gnum * r; gi < (gnum+1)*r; gi++ {
		pf := g.pre[gi]
		if pf == nil {
			continue
		}
		for _, w := range pf.wins {
			if !ok || w.Start < start {
				start = w.Start
			}
			if w.End() > end {
				end = w.End()
			}
			ok = true
		}
	}
	return start, end, ok
}

// newSpan schedules faulted member gnum's residency: from the last
// control boundary before its first window opens (0 for a window
// opening within the first period), so its devices exist and hold a
// planned level before the fault strikes. A span starting at or past
// the horizon never opens.
func (g *groupState) newSpan(gnum, pi int) *faultSpan {
	sp := g.s.spec
	start, end, _ := g.faultWindow(gnum)
	var at time.Duration
	if start > 0 {
		at = (start - 1) / sp.ControlPeriod * sp.ControlPeriod
	}
	return &faultSpan{g: gnum, pi: pi, at: at, end: end, pending: at > 0 && at < sp.Horizon}
}

// deferred reports whether group gnum's build-time streams are stashed
// for a span that materializes after build (or never).
func (g *groupState) deferred(gnum int) (*faultSpan, bool) {
	fs := g.spans[gnum]
	return fs, fs != nil && fs.at > 0
}

// windowed reports whether resident lane li is a fault-window member,
// which re-parks into its bucket after recovery instead of parking per
// lane.
func (g *groupState) windowed(li int) bool {
	return g.spans[g.s.laneGroup[li]] != nil
}

// materialize builds one resident member's device on its stream ds,
// wrapped with its pre-drawn fault windows when it has any.
func (g *groupState) materialize(profile string, gi int, ds *sim.RNG) (device.Device, error) {
	name := InstanceName(profile, gi)
	d, err := baseDevice(g.s.spec, g.s.eng, ds, profile, name)
	if err != nil {
		return nil, err
	}
	pf, ok := g.pre[gi]
	if !ok {
		return d, nil
	}
	fd, err := fault.New(d, g.s.eng, pf.ds.Stream("inject"), fault.Profile{Windows: pf.wins})
	if err != nil {
		return nil, fmt.Errorf("fault windows for %s: %w", name, err)
	}
	return fd, nil
}

// finishBuild runs after the build-time resident lanes exist: map lanes
// to cohort slots (probes ahead of barred members, each in build order)
// and apply the initial plan. Members whose fault span opens later are
// counted neither as residents nor as never-materialized lanes.
func (g *groupState) finishBuild() {
	s := g.s
	P := len(s.spec.Profiles)
	g.laneCohort = make([]int, len(s.lanes))
	g.laneResIdx = make([]int, len(s.lanes))
	barred := make([][]int, len(g.cohorts))
	for li, gnum := range s.laneGroup {
		pi := gnum % P
		g.laneCohort[li] = pi
		if _, _, faulted := g.faultWindow(gnum); faulted {
			barred[pi] = append(barred[pi], li)
		} else {
			g.cohorts[pi].resOrder = append(g.cohorts[pi].resOrder, li)
		}
	}
	virtual := 0
	for pi := range g.cohorts {
		c := &g.cohorts[pi]
		c.probes = len(c.resOrder)
		c.resOrder = append(c.resOrder, barred[pi]...)
		c.resLevel = make([]int, len(c.resOrder))
		for k, li := range c.resOrder {
			g.laneResIdx[li] = k
		}
		virtual += c.count - len(c.resOrder)
	}
	for _, fs := range g.spans {
		if fs.pending {
			virtual--
		}
	}
	s.res.MesoGroupLanes = virtual
	g.apply(s.spec.Budget[0].FleetW)
}

// warmKey is the cohort's idle-bucket key: state -1 is outside every
// hull level, so the bucket never collides with a serving one.
func (g *groupState) warmKey(c *groupCohort) meso.GroupKey {
	return meso.GroupKey{Cohort: c.pi, State: -1}
}

// warmOpW is the per-lane draw imposed on warming members: the hull's
// top level times the replica count — devices power on at full draw,
// exactly as materialized lanes enter the run.
func (g *groupState) warmOpW(c *groupCohort) float64 {
	return c.hull[len(c.hull)-1].powerW * float64(g.s.spec.Replicas)
}

// laneGone reports whether a resident lane has left the serving set
// (draining or retired) and must be skipped by the plan.
func (g *groupState) laneGone(li int) bool {
	return g.s.lc != nil && (g.s.lc[li].removing || g.s.lc[li].dead)
}

// apply is the re-plan: bulk-allocate every cohort member to a hull
// level under the shard's budget slice, retarget resident devices and
// governors, and move bucket counts — O(#buckets + #residents),
// independent of the virtual population.
//
// A resident whose device refuses its power-state command (an injected
// power-cmd fault) is held at its stuck estimate — per device, the
// highest planning-table draw at the state it holds — that draw is
// reserved from the slice, and the rest is re-planned. Each refused
// pass sticks at least one more resident, so there is at most one pass
// per resident; Compensations counts the re-plan passes.
func (g *groupState) apply(fleetW float64) {
	s := g.s
	sp := s.spec
	now := s.eng.Now()
	slice := fleetW * float64(s.liveDevs) / float64(s.fleetLive)

	// Warming members hold budget share but cannot be planned — their
	// imposed power-on draw comes off the top of the slice before the
	// serving population divides the rest.
	var warmW float64
	for pi := range g.cohorts {
		c := &g.cohorts[pi]
		if c.warming > 0 {
			warmW += g.warmOpW(c) * float64(c.warming)
		}
	}
	if warmW > 0 {
		if slice -= warmW; slice < 0 {
			slice = 0
		}
	}

	var stuck map[int]bool // resident lanes held at their stuck estimate
	var reservedW float64
	var dist [][]int
	feasible := true
	for {
		demands := make([]cohortDemand, len(g.cohorts))
		for pi := range g.cohorts {
			c := &g.cohorts[pi]
			demands[pi] = cohortDemand{hull: c.hull, count: c.count - c.warming, laneScale: float64(sp.Replicas)}
		}
		for li := range stuck {
			demands[g.laneCohort[li]].count--
		}
		var ok bool
		if dist, ok = planShares(demands, slice-reservedW); !ok {
			// Infeasible slice: keep the previous bucket counts and
			// governor targets rather than thrash. The first apply has
			// none, so everything starts at the top level, matching the
			// devices' power-on states.
			if g.applied {
				s.res.Infeasible++
				return
			}
			feasible = false
			dist = make([][]int, len(demands))
			for pi, d := range demands {
				dist[pi] = make([]int, len(d.hull))
				dist[pi][len(d.hull)-1] = d.count
			}
		}
		refused := g.assignResidents(dist, stuck)
		if len(refused) == 0 {
			break
		}
		s.res.Compensations++
		if stuck == nil {
			stuck = make(map[int]bool)
		}
		for _, li := range refused {
			stuck[li] = true
			reservedW += g.holdStuck(li)
		}
	}
	if feasible {
		s.res.Replans++
	} else {
		s.res.Infeasible++
	}

	// Whatever the residents left is the virtual population per level.
	for pi := range g.cohorts {
		c := &g.cohorts[pi]
		if c.count == 0 {
			continue
		}
		if sp.MesoGroupMin > 0 {
			s.res.MesoGroupScans += len(c.hull)
		}
		for j, n := range dist[pi] {
			key := g.levelKey(c, j)
			if n > 0 || g.pool.Count(key) > 0 {
				g.pool.SetCount(key, n, now)
			}
		}
	}

	for i, gv := range s.govs {
		if gv != nil {
			gv.SetBudget(s.planBudget(i))
		}
	}
	g.applied = true
}

// assignResidents gives every serving resident its level from the
// shared distribution, taking each assigned member out of dist: first a
// coverage pass placing one probe on each populated level (so every
// live bucket has a calibration source), then the rest onto whichever
// level has the most members left. Residents retired by churn or held
// stuck hold no level and are skipped. It returns the lanes whose
// devices refused their command, in cohort order.
func (g *groupState) assignResidents(dist [][]int, stuck map[int]bool) (refused []int) {
	var pos []int
	for pi := range g.cohorts {
		c := &g.cohorts[pi]
		if c.count == 0 {
			continue
		}
		rem := dist[pi]
		pos = pos[:0]
		probes := 0
		for k, li := range c.resOrder {
			if g.laneGone(li) || stuck[li] {
				continue
			}
			if k < c.probes {
				probes++
			}
			pos = append(pos, k)
		}
		assign := func(k, j int) {
			if !g.assignResident(c, k, j) {
				refused = append(refused, c.resOrder[k])
			}
			rem[j]--
		}
		assigned := 0
		for j := 0; j < len(rem) && assigned < probes; j++ {
			if rem[j] > 0 {
				assign(pos[assigned], j)
				assigned++
			}
		}
		for ; assigned < len(pos); assigned++ {
			best := -1
			for j := range rem {
				if rem[j] > 0 && (best < 0 || rem[j] > rem[best]) {
					best = j
				}
			}
			assign(pos[assigned], best)
		}
	}
	return refused
}

// assignResident points resident k of cohort c at hull level j: its
// devices move to the level's power state and their governor targets
// follow. It reports false when a device refused the command.
func (g *groupState) assignResident(c *groupCohort, k, j int) bool {
	s := g.s
	c.resLevel[k] = j
	li := c.resOrder[k]
	r := s.spec.Replicas
	ok := true
	for di := li * r; di < (li+1)*r; di++ {
		g.planW[di] = c.hull[j].powerW
		d := s.devs[di]
		if len(d.PowerStates()) == 0 {
			continue
		}
		if err := d.SetPowerState(c.hull[j].level); err != nil {
			ok = false
		}
	}
	return ok
}

// holdStuck pins a refusing resident's devices at their stuck
// estimates — the highest planning-table draw at the power state each
// holds, or the profile's highest draw when the table has no point
// there — and returns the lane total the re-plan must reserve.
func (g *groupState) holdStuck(li int) float64 {
	s := g.s
	profile := g.cohorts[g.laneCohort[li]].profile
	r := s.spec.Replicas
	var sum float64
	for di := li * r; di < (li+1)*r; di++ {
		ps := s.devs[di].PowerStateIndex()
		w := -1.0
		for _, p := range planningTable[profile] {
			if p.ps == ps && p.powerW > w {
				w = p.powerW
			}
		}
		if w < 0 {
			w = profileMaxW(profile)
		}
		g.planW[di] = w
		sum += w
	}
	return sum
}

// addResident enrolls a lane materialized mid-run into cohort pi: it
// joins resOrder behind the residents already there. A lane admitted by
// churn gets its level from the caller's re-plan, a fault-window member
// from adopt.
func (g *groupState) addResident(li, pi int) {
	c := &g.cohorts[pi]
	g.laneCohort = append(g.laneCohort, pi)
	g.laneResIdx = append(g.laneResIdx, len(c.resOrder))
	c.resOrder = append(c.resOrder, li)
	c.resLevel = append(c.resLevel, 0)
}

// adopt hands freshly materialized lane li one virtual member of its
// cohort: the most populated serving bucket gives up a member, the lane
// takes that level, and its governors the level's draw. No re-plan
// runs — the cohort's distribution is unchanged, one member just
// changed representation. The member's fault window has not opened
// yet, so its devices accept the command.
func (g *groupState) adopt(li int, now time.Duration) {
	s := g.s
	c := &g.cohorts[g.laneCohort[li]]
	best, bestN := -1, 0
	for j := range c.hull {
		if n := g.pool.Count(g.levelKey(c, j)); n > bestN {
			best, bestN = j, n
		}
	}
	if best < 0 {
		panic(fmt.Sprintf("serve: cohort %s has no virtual member for group %d to adopt", c.profile, s.laneGroup[li]))
	}
	g.pool.SetCount(g.levelKey(c, best), bestN-1, now)
	g.assignResident(c, g.laneResIdx[li], best)
	r := s.spec.Replicas
	for di := li * r; di < (li+1)*r; di++ {
		if gv := s.govs[di]; gv != nil {
			gv.SetBudget(s.planBudget(di))
		}
	}
}

// release returns resident lane li's member to the bucket of the level
// it holds, as a virtual member from now on; the caller retires the
// lane. Like adopt, it moves representation without a re-plan.
func (g *groupState) release(li int, now time.Duration) {
	c := &g.cohorts[g.laneCohort[li]]
	key := g.levelKey(c, c.resLevel[g.laneResIdx[li]])
	g.pool.SetCount(key, g.pool.Count(key)+1, now)
}

// levelKey is the serving bucket of cohort c at hull level j.
func (g *groupState) levelKey(c *groupCohort, j int) meso.GroupKey {
	return meso.GroupKey{Cohort: c.pi, State: c.hull[j].level}
}

// addVirtual admits one churned replica group as a virtual cohort
// member: no devices, no lane — the member enters the cohort's idle
// (warm) bucket at the imposed power-on draw and joins the serving
// distribution when its warm batch completes. The caller re-plans
// afterward.
func (g *groupState) addVirtual(ad laneAdd, at, warmAt time.Duration, now time.Duration) {
	c := &g.cohorts[ad.pi]
	c.count++
	c.warming++
	if n := len(c.warmBatches); n > 0 && c.warmBatches[n-1].warmAt == warmAt && c.warmBatches[n-1].at == at {
		c.warmBatches[n-1].n++
	} else {
		c.warmBatches = append(c.warmBatches, warmBatch{at: at, warmAt: warmAt, n: 1})
	}
	g.pool.SetIdleCount(g.warmKey(c), c.warming, g.warmOpW(c), now)
	g.s.res.MesoGroupLanes++
}

// removeMember retires one cohort member at a scale-in epoch. A
// materialized member (probe or faulted resident, or a plain-built
// group) drains mechanistically; a virtual member leaves its bucket at
// the caller's re-plan — its analytic queue is empty by construction,
// so it has no drain to record. A faulted member whose span has not
// opened yet never materializes. A member removed while still warming
// leaves the idle bucket instead and decrements the newest non-empty
// warm batch (scale-in pops the newest group numbers).
func (g *groupState) removeMember(rm churnRemove, now time.Duration) {
	c := &g.cohorts[rm.pi]
	c.count--
	if li, resident := g.s.groupLane[rm.g]; resident {
		g.s.beginRemove(li, now, true)
		return
	}
	if fs := g.spans[rm.g]; fs != nil && fs.pending {
		fs.pending = false
		g.s.res.MesoGroupLanes++
	}
	if rm.warming {
		c.warming--
		for k := len(c.warmBatches) - 1; k >= 0; k-- {
			if c.warmBatches[k].n > 0 {
				c.warmBatches[k].n--
				break
			}
		}
		g.pool.SetIdleCount(g.warmKey(c), c.warming, g.warmOpW(c), now)
	}
}

// warmBatchDone completes the warm batch of cohort pi admitted at
// `at`: its surviving members leave the idle bucket for the serving
// distribution (the caller re-plans) and each reports its modeled
// warm-up as the recovery latency.
func (g *groupState) warmBatchDone(pi int, at, warmAt time.Duration, now time.Duration) {
	c := &g.cohorts[pi]
	for k := range c.warmBatches {
		b := c.warmBatches[k]
		if b.at != at || b.warmAt != warmAt {
			continue
		}
		c.warmBatches = append(c.warmBatches[:k], c.warmBatches[k+1:]...)
		if b.n > 0 {
			c.warming -= b.n
			g.pool.SetIdleCount(g.warmKey(c), c.warming, g.warmOpW(c), now)
			for j := 0; j < b.n; j++ {
				g.s.res.WarmupLats = append(g.s.res.WarmupLats, warmAt-at)
			}
		}
		return
	}
}

// probeParked runs when a resident probe lane parks: its dwell-window
// measured draw calibrates the bucket its cohort-mates occupy at the
// same level. A recalibration of an already-measured bucket feeds the
// drift probe — the same gate sentinel re-measurements use — before
// folding into the bucket's running mean; a first calibration converts
// the bucket's pending spans into interval backfill.
func (g *groupState) probeParked(lane int, watts float64, now time.Duration, drift *invariant.DriftProbe) {
	c := &g.cohorts[g.laneCohort[lane]]
	j := c.resLevel[g.laneResIdx[lane]]
	key := g.levelKey(c, j)
	if !g.pool.Has(key) {
		return // no virtual members ever held this level
	}
	if g.pool.Calibrated(key) {
		drift.Observe(g.pool.Op(key), watts)
	}
	g.amendBackfill(g.pool.Calibrate(key, watts, now))
}

// amendBackfill distributes backfill spans into the shard's interval
// accounting: recorded intervals are amended in place (merge computes
// tracking from the amended values), and the portion falling inside the
// in-progress interval rides ivCarry into its upcoming record. Virtual
// energy thereby lands in the exact control periods it was consumed in.
func (g *groupState) amendBackfill(spans []meso.BackfillSpan) {
	s := g.s
	cp := s.spec.ControlPeriod
	for _, sp := range spans {
		if sp.To <= sp.From {
			continue
		}
		w := sp.Joules / (sp.To - sp.From).Seconds()
		k := int(sp.From / cp)
		for t := sp.From; t < sp.To; k++ {
			end := time.Duration(k+1) * cp
			if end > sp.To {
				end = sp.To
			}
			j := w * (end - t).Seconds()
			if k < s.ivIdx && k < len(s.res.IntervalEnergyJ) {
				s.res.IntervalEnergyJ[k] += j
			} else {
				s.ivCarry += j
			}
			s.res.MesoGroupJ += j
			t = end
		}
	}
}

// settle closes the group tier at the horizon: buckets no probe ever
// calibrated fall back to their planning-table draw (backfilled like
// any calibration), virtual IO settles into the serving counters, and
// the bucket energy ledger lands in the report.
func (g *groupState) settle(now time.Duration) {
	s := g.s
	for pi := range g.cohorts {
		c := &g.cohorts[pi]
		for j := range c.hull {
			key := g.levelKey(c, j)
			if !g.pool.Has(key) || g.pool.Calibrated(key) {
				continue
			}
			s.res.MesoGroupScans++
			g.amendBackfill(g.pool.Calibrate(key, c.hull[j].powerW*float64(s.spec.Replicas), now))
		}
	}
	s.res.MesoGroupJ += g.pool.EnergyJ(now)
	ios, bytes := g.pool.SettleIO(now)
	s.res.Offered += ios
	s.res.Admitted += ios
	s.res.Completed += ios
	s.res.BytesCompleted += bytes
	s.res.MesoGroupBuckets = g.pool.Buckets()
}
