package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"wattio/internal/adaptive"
	"wattio/internal/device"
	"wattio/internal/sim"
	"wattio/internal/telemetry/invariant"
	"wattio/internal/workload"
)

// govGuard is the slack factor between a device's planned draw and its
// governor budget: wide enough that the feedback loop does not fight
// the model-based plan under normal draw, tight enough to catch a
// device running meaningfully hotter than its model says.
const govGuard = 1.10

// shardRange is one shard's contiguous slice of replica groups.
type shardRange struct{ g0, g1 int }

// shardResult is everything a shard contributes to the merged report.
type shardResult struct {
	Faulted int

	Offered, Admitted, Rejected, Completed int64
	Batches, BytesCompleted                int64
	Latencies                              []time.Duration

	IntervalEnergyJ []float64
	// EndAt is the shard engine's clock after the post-horizon drain:
	// the horizon, or later when held IO (a dropout window) released
	// and completed past it.
	EndAt time.Duration
	// Events is the shard's total dispatched kernel event count.
	Events uint64

	MesoDehydrations, MesoRehydrations int
	MesoParkedPeriods                  int
	MesoAggJ                           float64
	MesoWorstDriftFrac                 float64
	MesoDriftOK                        bool

	MesoGroupLanes, MesoGroupBuckets, MesoGroupScans int
	MesoGroupJ                                       float64

	ChurnAdds, ChurnRemoves, ChurnDrainsBegun int
	WarmupLats, DrainLats                     []time.Duration

	GovSteps, GovRetries, GovFailures  int
	Replans, Compensations, Infeasible int
	Failovers, WakesOnDemand           int

	CapOK     bool
	CapWorstW float64
}

// shard is one independent simulation: a slice of the fleet with its
// own engine, control plane, and request scheduler.
type shard struct {
	spec *Spec
	eng  *sim.Engine
	res  shardResult

	devs []device.Device // build order; wrapped with fault where drawn
	govs []*adaptive.Governor

	redirs []*adaptive.Redirector
	lanes  []*lane

	// Per-lane arrival machinery, indexed like lanes. The stream objects
	// are retained so a mesoscale rehydration can restart a lane's
	// arrivals mid-stream instead of replaying the sequence from its
	// seed.
	arrs      []*workload.Arrivals
	astreams  []*sim.RNG
	laneGroup []int // global replica-group number behind each lane
	meso      *mesoState
	grp       *groupState

	// devTotal is the shard's full device count including virtual group
	// members; budget slices and cap bounds scale by it, not by the
	// materialized len(devs). Equal to len(devs) with no cohort virtual.
	devTotal int
	// liveDevs/fleetLive are the shard's and the fleet's live device
	// counts — the budget-slice ratio. Equal to devTotal and Spec.Size
	// until a churn epoch moves them.
	liveDevs, fleetLive int

	// Lane-lifecycle state, nil/zero unless Spec.Churn is set or a
	// fault span can retire a lane (see lifecycle.go). laneRates is the
	// per-lane arrival schedule (rates scaled by Active); retiredJ the
	// frozen meters of retired devices.
	lc        []laneLife
	devDead   []bool
	groupLane map[int]int
	retiredJ  float64
	laneRates []workload.RateStep

	inflight int
	stopped  bool
	prevE    float64
	// ivCarry holds group-tier backfill energy owed to the in-progress
	// control interval; intervalTick folds and clears it.
	ivCarry float64

	// Interval energy accounting rides on one rescheduled timer instead
	// of a build-time event per interval.
	ivIdx   int
	ivTimer *sim.Timer

	// Invariant probes, nil unless Spec.CheckInvariants.
	capProbe   *invariant.CapProbe
	clockProbe *invariant.ClockProbe

	// freeDone pools per-request completion records across the shard's
	// lanes; the pool never grows past the shard's total in-flight depth.
	freeDone *laneDone
}

// EnergyJ is the shard's aggregate device energy — mechanistic meters
// plus the mesoscale pool's dynamic accrual for parked lanes — so the
// sliding-window cap probe and interval accounting cover the analytic
// population too.
func (s *shard) EnergyJ() float64 {
	var sum float64
	if s.devDead == nil {
		for _, d := range s.devs {
			sum += d.EnergyJ()
		}
	} else {
		// Retired devices stop drawing: their meters were frozen into
		// retiredJ at retirement, so the sum stays continuous there and
		// monotone throughout.
		sum = s.retiredJ
		for i, d := range s.devs {
			if !s.devDead[i] {
				sum += d.EnergyJ()
			}
		}
	}
	if s.meso != nil {
		sum += s.meso.pool.DynEnergyJ(s.eng.Now())
	}
	return sum + s.grp.pool.EnergyJ(s.eng.Now())
}

// lane is one replica group's request scheduler: an admission-bounded
// FIFO queue in front of a device (or a Redirector over its replicas),
// dispatched in batches up to the group's depth limit.
type lane struct {
	sh   *shard
	idx  int
	dev  device.Device
	rng  *sim.RNG
	span int64

	queue    []time.Duration // admission timestamps
	head     int
	inflight int
	seqOff   int64
	// rejected mirrors the shard-wide counter per lane, for the
	// mesoscale steadiness fingerprint.
	rejected int64
}

func (l *lane) qlen() int { return len(l.queue) - l.head }

// arrive handles one open-loop arrival: admit into the queue or reject
// when the queue is at capacity.
func (l *lane) arrive() {
	s := l.sh
	s.res.Offered++
	if l.qlen() >= s.spec.QueueCap {
		s.res.Rejected++
		l.rejected++
		return
	}
	s.res.Admitted++
	l.queue = append(l.queue, s.eng.Now())
	l.dispatch()
}

func (l *lane) pop() time.Duration {
	at := l.queue[l.head]
	l.head++
	if l.head > 1024 && l.head*2 >= len(l.queue) {
		l.queue = append(l.queue[:0], l.queue[l.head:]...)
		l.head = 0
	}
	return at
}

// dispatch submits queued requests in batches. A group fires when a
// full batch of depth slots is free or when the whole remaining queue
// fits — so a loaded lane coalesces submissions into Batch-sized
// bursts (amortizing per-doorbell work, as a real frontend would)
// while a lightly loaded lane dispatches immediately with no added
// latency.
func (l *lane) dispatch() {
	s := l.sh
	if s.stopped {
		return
	}
	for {
		free, q := s.spec.Depth-l.inflight, l.qlen()
		if q == 0 || free == 0 || (free < s.spec.Batch && q > free) {
			return
		}
		n := s.spec.Batch
		if free < n {
			n = free
		}
		if q < n {
			n = q
		}
		s.res.Batches++
		for i := 0; i < n; i++ {
			l.submit(l.pop())
		}
	}
}

// laneDone is one in-flight request's completion record, pooled on the
// shard so steady-state serving submits without allocating: the closure
// handed to the device is built once per record and only its captured
// fields change between reuses.
type laneDone struct {
	l        *lane
	admitted time.Duration
	fn       func()
	next     *laneDone
}

func (d *laneDone) run() {
	// Copy out and recycle first: the dispatch below may pick this very
	// record up for the replacement request.
	l, admitted := d.l, d.admitted
	s := l.sh
	d.next = s.freeDone
	s.freeDone = d
	now := s.eng.Now()
	l.inflight--
	s.inflight--
	s.res.Completed++
	s.res.BytesCompleted += s.spec.ChunkBytes
	// Latency is measured from admission, so queue wait under a
	// curtailed budget is part of the serving tail, as it would be
	// for a real frontend.
	s.res.Latencies = append(s.res.Latencies, now-admitted)
	l.dispatch()
	if s.lc != nil {
		s.laneCompleted(l, now)
	}
	if s.meso != nil {
		s.meso.laneQuiet(l)
	}
}

func (l *lane) submit(admitted time.Duration) {
	s := l.sh
	l.inflight++
	s.inflight++
	op := device.OpWrite
	if s.spec.Read {
		op = device.OpRead
	}
	req := device.Request{Op: op, Offset: l.nextOffset(), Size: s.spec.ChunkBytes}
	d := s.freeDone
	if d == nil {
		d = &laneDone{}
		d.fn = d.run
	} else {
		s.freeDone = d.next
	}
	d.l, d.admitted = l, admitted
	l.dev.Submit(req, d.fn)
}

func (l *lane) nextOffset() int64 {
	bs := l.sh.spec.ChunkBytes
	if !l.sh.spec.Seq {
		return l.rng.Int64N(l.span/bs) * bs
	}
	off := l.seqOff
	l.seqOff += bs
	if l.seqOff+bs > l.span {
		l.seqOff = 0
	}
	return off
}

// planBudget is device i's governor budget under the current plan.
func (s *shard) planBudget(i int) float64 {
	return s.grp.planW[i] * govGuard
}

// intervalBoundary is the virtual time interval k's accounting fires,
// clamped to the horizon for the final partial interval.
func (s *shard) intervalBoundary(k int) time.Duration {
	t := time.Duration(k) * s.spec.ControlPeriod
	if t > s.spec.Horizon {
		t = s.spec.Horizon
	}
	return t
}

func (s *shard) intervalTick() {
	e := s.EnergyJ()
	s.res.IntervalEnergyJ[s.ivIdx] = e - s.prevE + s.ivCarry
	s.ivCarry = 0
	s.prevE = e
	s.ivIdx++
	// The mesoscale tier rides the same boundary walk: steadiness
	// fingerprints, calibration, and sentinel rotation all happen after
	// the closing interval's energy is recorded. When every lane is
	// parked this timer is the shard's heartbeat — the engine always has
	// an event to carry virtual time to the horizon.
	if s.meso != nil {
		s.meso.tick()
	}
	if s.ivIdx < len(s.res.IntervalEnergyJ) {
		s.ivTimer.Reschedule(s.intervalBoundary(s.ivIdx + 1))
	}
}

// buildLane constructs replica group g of cohort pi from its streams —
// devices (each wrapped with its pre-drawn fault, if any), redirector,
// and lane — and appends them to the shard. Governors, arrivals, and
// plan membership are the caller's.
func (s *shard) buildLane(g, pi int, st *laneStreams) (int, error) {
	sp := s.spec
	profile := sp.Profiles[pi]
	groupDevs := make([]device.Device, 0, sp.Replicas)
	for rep := 0; rep < sp.Replicas; rep++ {
		d, err := s.grp.materialize(profile, g*sp.Replicas+rep, st.devs[rep])
		if err != nil {
			return 0, err
		}
		s.devs = append(s.devs, d)
		s.grp.planW = append(s.grp.planW, profileMaxW(profile))
		if s.devDead != nil {
			s.devDead = append(s.devDead, false)
		}
		groupDevs = append(groupDevs, d)
	}
	target := groupDevs[0]
	if sp.Replicas > 1 {
		rd, err := adaptive.NewRedirector(fmt.Sprintf("group%05d", g), groupDevs, sp.Active)
		if err != nil {
			return 0, err
		}
		s.redirs = append(s.redirs, rd)
		target = rd
	}
	span := target.CapacityBytes()
	span -= span % sp.ChunkBytes
	li := len(s.lanes)
	s.lanes = append(s.lanes, &lane{sh: s, idx: li, dev: target, rng: st.lane, span: span})
	s.laneGroup = append(s.laneGroup, g)
	if s.groupLane != nil {
		s.groupLane[g] = li
	}
	return li, nil
}

// runShard builds and runs one shard to completion on eng. ch is the
// shard's compiled churn timeline (nil when the spec has none).
func runShard(sp *Spec, eng *sim.Engine, idx int, rg shardRange, ch *shardChurn) (*shardResult, error) {
	s, err := buildShard(sp, eng, idx, rg, ch)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// buildShard materializes one shard at virtual time zero — devices,
// lanes, the initial plan, governors, and every scheduled control
// event — ready to run.
func buildShard(sp *Spec, eng *sim.Engine, idx int, rg shardRange, ch *shardChurn) (*shard, error) {
	rng := sim.NewRNG(sp.Seed ^ shardHash("serve/shard", idx))
	frng := sim.NewRNG(sp.FaultSeed ^ shardHash("serve/fault", idx))
	s := &shard{spec: sp, eng: eng}
	s.res.CapOK = true
	s.res.MesoDriftOK = true
	s.devTotal = (rg.g1 - rg.g0) * sp.Replicas
	s.liveDevs, s.fleetLive = s.devTotal, sp.Size
	if len(sp.Rates) > 0 {
		s.laneRates = make([]workload.RateStep, len(sp.Rates))
		for i, rs := range sp.Rates {
			s.laneRates[i] = workload.RateStep{At: rs.At, IOPS: rs.IOPS * float64(sp.Active)}
		}
	}

	// Build devices, replica groups, and lanes. Only resident groups
	// materialize — planGroups decides residency and pre-draws every
	// member's fault outcome first, so virtual members cost no device
	// state at all. A faulted member whose span opens later draws its
	// streams here, in build order, and keeps them for then.
	s.grp = planGroups(s, frng, rg, scriptedFaults(sp))
	for _, g := range s.grp.buildGroups {
		pi := g % len(sp.Profiles)
		st := drawLaneStreams(sp, rng, pi, g)
		if fs, ok := s.grp.deferred(g); ok {
			fs.st = st
			continue
		}
		if _, err := s.buildLane(g, pi, st); err != nil {
			return nil, err
		}
	}

	// Initial plan, then one governor per device with selectable power
	// states, targeted at its planned draw.
	s.grp.finishBuild()
	for i, d := range s.devs {
		if len(d.PowerStates()) < 2 {
			s.govs = append(s.govs, nil)
			continue
		}
		gv, err := adaptive.NewGovernor(eng, d, s.planBudget(i), sp.ControlPeriod)
		if err != nil {
			return nil, err
		}
		gv.Start()
		s.govs = append(s.govs, gv)
	}

	// A budget step re-plans the whole shard, so every analytically
	// aggregated lane must return to mechanistic simulation first: the
	// rehydration settles its closed-form counts and restores governors
	// and arrivals before the plan changes underneath it.
	for _, st := range sp.Budget[1:] {
		st := st
		eng.Post(st.At, func() {
			if s.meso != nil {
				s.meso.rehydrateAll()
			}
			s.grp.apply(st.FleetW)
		})
	}

	// Rate-schedule boundaries and churn epochs post after the budget
	// steps, so at a shared instant the new budget is already in force
	// when the boundary or epoch re-plans. Warm events for earlier churn
	// events post before later epochs — compileChurn's warming flag
	// relies on that order.
	if len(sp.Rates) > 1 {
		for _, rs := range sp.Rates[1:] {
			rs := rs
			eng.Post(rs.At, func() { s.rateStep(rs) })
		}
	}
	if ch != nil || len(s.grp.spans) > 0 {
		s.lc = make([]laneLife, len(s.lanes))
		s.devDead = make([]bool, len(s.devs))
		s.groupLane = make(map[int]int, len(s.lanes))
		for i, g := range s.laneGroup {
			s.groupLane[g] = i
		}
	}
	if ch != nil {
		for _, ep := range ch.epochs {
			ep := ep
			eng.Post(ep.at, func() { s.churnEpoch(ep) })
			if len(ep.adds) > 0 && ep.warmAt > ep.at {
				eng.Post(ep.warmAt, func() { s.warmEpoch(ep) })
			}
		}
	}
	// Fault spans open after any co-timed budget step or churn epoch, so
	// a member adopts the level in force and a removal cancels first.
	for _, g := range s.grp.buildGroups {
		if fs, ok := s.grp.deferred(g); ok && fs.pending {
			eng.Post(fs.at, func() { s.openSpan(fs) })
		}
	}

	// Power accounting per control interval: one timer walks the
	// interval boundaries, rescheduling itself in place. The interval
	// event only reads EnergyJ (and no co-timed event deposits energy
	// discontinuously), so its order among co-timed control events does
	// not affect any recorded value.
	nIv := int((sp.Horizon + sp.ControlPeriod - 1) / sp.ControlPeriod)
	s.res.IntervalEnergyJ = make([]float64, nIv)
	s.prevE = s.EnergyJ()
	s.ivTimer = eng.Schedule(s.intervalBoundary(1), s.intervalTick)

	if sp.CheckInvariants {
		// The cap bound is the largest budget slice this shard can ever
		// hold: max over budget steps crossed with max over membership
		// epochs of the live-device ratio. The bound covers the drain
		// overhang too — a removal only lowers the ratio, so the earlier,
		// larger bound still holds while retiring lanes finish drawing.
		var maxSlice float64
		for _, st := range sp.Budget {
			slice := st.FleetW * float64(s.devTotal) / float64(sp.Size)
			if ch != nil {
				for _, ep := range ch.epochs {
					if v := st.FleetW * float64(ep.live) / float64(ep.fleetLive); v > slice {
						slice = v
					}
				}
			}
			if slice > maxSlice {
				maxSlice = slice
			}
		}
		s.capProbe = invariant.AttachCap(eng, s, maxSlice*(1+sp.CapTolFrac), sp.ControlPeriod, sp.ControlPeriod/20)
		s.clockProbe = invariant.AttachClock(eng, sp.ControlPeriod/2)
	}

	// Open-loop arrival stream per lane, drawn in build order.
	for _, g := range s.grp.buildGroups {
		arr := rng.Stream(fmt.Sprintf("arrivals%05d", g))
		if fs, ok := s.grp.deferred(g); ok {
			fs.st.arr = arr
			continue
		}
		li := len(s.astreams)
		s.astreams = append(s.astreams, arr)
		s.arrs = append(s.arrs, nil)
		if err := s.startLaneArrivals(li); err != nil {
			return nil, err
		}
	}

	if sp.Meso {
		s.meso = newMeso(s)
	}

	return s, nil
}

// run drives a built shard through the horizon and the post-horizon
// drain, and returns its contribution to the merged report.
func (s *shard) run() (*shardResult, error) {
	sp, eng := s.spec, s.eng
	eng.RunUntil(sp.Horizon)

	// Settle the analytic tier at the horizon, before governors are
	// stopped and in-flight IO drains: parked lanes contribute their
	// closed-form counts and energy through the full horizon.
	if s.meso != nil {
		s.meso.settle()
	}

	// Past the horizon: stop admitting and controlling, drain in-flight
	// IO so every admitted-and-submitted request's latency is counted.
	s.stopped = true
	for _, gv := range s.govs {
		if gv != nil {
			gv.Stop()
		}
	}
	if s.capProbe != nil {
		s.capProbe.Stop()
		s.res.CapWorstW = s.capProbe.WorstWindowW()
		s.res.CapOK = s.capProbe.Check(0.02) == nil
	}
	if s.clockProbe != nil {
		s.clockProbe.Stop()
		if err := s.clockProbe.Check(); err != nil {
			return nil, err
		}
	}
	for s.inflight > 0 && eng.Step() {
	}
	if s.inflight > 0 {
		return nil, fmt.Errorf("engine drained with %d IOs in flight", s.inflight)
	}
	s.res.EndAt = eng.Now()
	s.res.Events = eng.Dispatched()

	for _, gv := range s.govs {
		if gv == nil {
			continue
		}
		s.res.GovSteps += gv.Steps
		s.res.GovRetries += gv.Retries
		s.res.GovFailures += gv.Failures
	}
	for _, rd := range s.redirs {
		s.res.Failovers += rd.Failovers
		s.res.WakesOnDemand += rd.WakesOnDemand
	}
	sort.Slice(s.res.Latencies, func(i, j int) bool { return s.res.Latencies[i] < s.res.Latencies[j] })
	return &s.res, nil
}

// shardHash derives a per-shard seed offset, so shards get independent
// but reproducible random streams no matter which worker runs them.
func shardHash(label string, idx int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", label, idx)
	return h.Sum64()
}
