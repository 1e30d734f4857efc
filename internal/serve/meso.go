package serve

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"wattio/internal/adaptive"
	"wattio/internal/device"
	"wattio/internal/meso"
	"wattio/internal/telemetry/invariant"
)

// The mesoscale aggregation tier lets a shard stop simulating lanes
// that have settled into a steady operating point. A lane's life cycle:
//
//	hydrated --(steady for MesoDwellPeriods)--> draining
//	draining --(in-flight and queue empty)----> idling | parked
//	idling   --(one quiesced period measured)-> parked
//	parked   --(budget step / sentinel / end)-> hydrated
//
// Everything the aggregate needs is calibrated from the lane's own
// mechanistic history on this run — the draw over its last steady
// control period, and the quiesced draw of its devices in their held
// power states (cached per power-state fingerprint, so repeated parks
// skip the idling phase). While parked, the devices' lazy meters keep
// accruing exact idle energy and the meso.Pool accounts only the
// dynamic delta and the synthetic IO counts; rehydration settles those
// into the shard's ledgers. Parked lanes produce no latency samples —
// the merged quantiles describe the mechanistic population.
//
// All decisions ride the shard's own interval timer and virtual clock,
// so the tier cannot perturb the determinism contract: reports are
// bit-identical at any host parallelism, and with Spec.Meso off no
// code path here runs at all.

// mesoSentinelEvery is the sentinel cadence in control periods: every
// so many ticks one parked lane per shard rehydrates, re-serves real
// traffic, and its freshly re-measured draw is compared against the
// aggregate's calibrated operating point (the drift probe).
const mesoSentinelEvery = 8

type mesoPhase uint8

const (
	mesoHydrated mesoPhase = iota
	mesoDraining
	mesoIdling
	mesoParked
)

type mesoLane struct {
	phase mesoPhase
	// barred lanes never park again: a sentinel re-measurement drifted
	// beyond tolerance, so the aggregate's model of this lane cannot be
	// trusted for the rest of the run. barredUntil bars a lane only
	// until a known transient ends — a fault-injected lane until its
	// last window closes (calibrating across a dropout would be a lie,
	// but a drained-back lane is just a lane again), a churned lane
	// until its warm-up completes. Neither transient bars forever: no
	// member is a permanently forced resident.
	barred      bool
	barredUntil time.Duration
	dwell       int

	// prevE/prevT are the lane's device energy baseline and the time it
	// was taken — the last tick, or the rehydration instant for a lane
	// that just returned mid-period. Period draws divide by the real
	// elapsed time, never by an assumed control period.
	prevE   float64
	prevT   time.Duration
	steadyW float64 // average draw over the last steady dwell window

	// Dwell window baseline: lane energy and time when the current
	// steady streak began. Calibrating over the whole window instead of
	// one period keeps Poisson arrival noise out of the operating point
	// (a single 100 ms period at a few thousand IOPS carries several
	// percent of count noise).
	dwellE float64
	dwellT time.Duration

	// Steadiness fingerprint snapshots from the last tick.
	rejected         int64
	states           []int
	failovers, wakes int

	// Idle calibration: measurement window start, and the cache of
	// measured quiesced draw keyed by power-state fingerprint.
	idleStartE float64
	idleStartT time.Duration
	idleW      map[string]float64

	// pendingPredW is the calibrated draw a sentinel rehydration must
	// be compared against at the next recalibration; <0 when none.
	pendingPredW float64
}

type mesoState struct {
	s      *shard
	pool   *meso.Pool
	drift  invariant.DriftProbe
	lanes  []mesoLane
	ticks  int
	cursor int // sentinel rotation position
	done   bool
}

func newMeso(s *shard) *mesoState {
	m := &mesoState{s: s, pool: meso.NewPool(len(s.lanes)), lanes: make([]mesoLane, len(s.lanes))}
	for i := range m.lanes {
		ml := &m.lanes[i]
		_, ml.barredUntil, _ = s.grp.faultWindow(s.laneGroup[i])
		ml.states = make([]int, s.spec.Replicas)
		ml.idleW = make(map[string]float64)
		ml.pendingPredW = -1
		ml.prevE = m.laneEnergy(i)
		m.snapshot(i, ml)
	}
	return m
}

// addLane extends the tier to cover a lane admitted mid-run by a churn
// epoch: the pool grows and the lane starts hydrated, barred from
// parking until its warm-up completes (an idle warming lane looks
// steady but has no operating point worth calibrating).
func (m *mesoState) addLane(i int, warmAt time.Duration) {
	m.pool.Grow(i + 1)
	m.lanes = append(m.lanes, mesoLane{})
	ml := &m.lanes[i]
	ml.barredUntil = warmAt
	ml.states = make([]int, m.s.spec.Replicas)
	ml.idleW = make(map[string]float64)
	ml.pendingPredW = -1
	ml.prevE = m.laneEnergy(i)
	ml.prevT = m.s.eng.Now()
	m.snapshot(i, ml)
}

// resetBaseline restarts lane i's steadiness tracking from the current
// instant — called when its traffic regime changes discontinuously (a
// churned lane's arrivals starting at warm-up), so a dwell accumulated
// under the old regime never calibrates the new one.
func (m *mesoState) resetBaseline(i int) {
	ml := &m.lanes[i]
	ml.dwell = 0
	ml.prevE, ml.prevT = m.laneEnergy(i), m.s.eng.Now()
	m.snapshot(i, ml)
}

// evict pulls a lane out of the analytic tier for retirement: a parked
// lane settles its span (without restarting serving), a draining or
// idling one simply returns to hydrated — its arrivals are already
// stopped and the retirement path stops its governors.
func (m *mesoState) evict(i int, now time.Duration) {
	ml := &m.lanes[i]
	switch ml.phase {
	case mesoParked:
		m.unpark(i, now, false)
	case mesoDraining, mesoIdling:
		ml.phase = mesoHydrated
		ml.dwell = 0
	}
}

func (m *mesoState) laneEnergy(i int) float64 {
	r := m.s.spec.Replicas
	var e float64
	for _, d := range m.s.devs[i*r : (i+1)*r] {
		e += d.EnergyJ()
	}
	return e
}

func (m *mesoState) laneGovs(i int) []*adaptive.Governor {
	r := m.s.spec.Replicas
	return m.s.govs[i*r : (i+1)*r]
}

// stateKey is the lane's power-state fingerprint, the cache key for
// measured idle draw: the same devices in the same states quiesce to
// the same draw.
func (m *mesoState) stateKey(i int) string {
	r := m.s.spec.Replicas
	var b strings.Builder
	for _, d := range m.s.devs[i*r : (i+1)*r] {
		b.WriteString(strconv.Itoa(d.PowerStateIndex()))
		b.WriteByte('.')
	}
	return b.String()
}

// snapshot refreshes the lane's steadiness fingerprint baselines.
func (m *mesoState) snapshot(i int, ml *mesoLane) {
	s := m.s
	ml.rejected = s.lanes[i].rejected
	if len(s.redirs) > 0 {
		ml.failovers, ml.wakes = s.redirs[i].Failovers, s.redirs[i].WakesOnDemand
	}
	r := s.spec.Replicas
	for rep, d := range s.devs[i*r : (i+1)*r] {
		ml.states[rep] = d.PowerStateIndex()
	}
}

// steady checks (and refreshes) the lane's fingerprint: no rejections,
// no failovers or on-demand wakes, settled healthy devices holding
// their power states, and a queue no deeper than one dispatch batch.
func (m *mesoState) steady(i int, ml *mesoLane) bool {
	s := m.s
	l := s.lanes[i]
	ok := l.qlen() <= s.spec.Batch
	if l.rejected != ml.rejected {
		ok = false
		ml.rejected = l.rejected
	}
	if len(s.redirs) > 0 {
		rd := s.redirs[i]
		if rd.Failovers != ml.failovers || rd.WakesOnDemand != ml.wakes {
			ok = false
			ml.failovers, ml.wakes = rd.Failovers, rd.WakesOnDemand
		}
	}
	r := s.spec.Replicas
	for rep, d := range s.devs[i*r : (i+1)*r] {
		if !device.Healthy(d) || !d.Settled() {
			ok = false
		}
		if idx := d.PowerStateIndex(); idx != ml.states[rep] {
			ok = false
			ml.states[rep] = idx
		}
	}
	return ok
}

// tick runs the tier's per-control-period pass, after the closing
// interval's energy is recorded.
func (m *mesoState) tick() {
	if m.done {
		return
	}
	s := m.s
	now := s.eng.Now()
	m.ticks++
	atEnd := now >= s.spec.Horizon
	// Virtual cohort members are served analytically this period — one
	// O(1) read, however many lanes the buckets represent.
	s.res.MesoParkedPeriods += s.grp.pool.Members()
	for i := range m.lanes {
		ml := &m.lanes[i]
		if s.lc != nil && (s.lc[i].removing || s.lc[i].dead) {
			continue
		}
		if ml.phase == mesoParked {
			s.res.MesoParkedPeriods++
			continue
		}
		e := m.laneEnergy(i)
		prev, prevT := ml.prevE, ml.prevT
		ml.prevE, ml.prevT = e, now
		switch ml.phase {
		case mesoHydrated:
			if now <= prevT {
				// The lane rehydrated at this very tick (a co-timed
				// budget step): no time has passed, there is no period
				// to judge.
				break
			}
			if m.steady(i, ml) {
				if ml.dwell == 0 {
					ml.dwellE, ml.dwellT = prev, prevT
				}
				ml.dwell++
			} else {
				ml.dwell = 0
			}
			if ml.barredUntil > 0 && now >= ml.barredUntil && s.lanes[i].qlen() == 0 {
				// The transient is over and the lane has caught up — a
				// dropout releases its held IOs all at once, and the
				// backlog drain draws more than the steady regime, so
				// the bar lifts only at the first clean (empty-queue)
				// boundary and the dwell restarts from it. A
				// fault-window member was resident only for the
				// transient: it re-parks into its bucket here instead.
				if s.grp.windowed(i) {
					if !atEnd {
						s.repark(i, now)
					}
					break
				}
				ml.barredUntil = 0
				ml.dwell = 0
			}
			if !atEnd && !ml.barred && ml.barredUntil == 0 && ml.dwell >= s.spec.MesoDwellPeriods {
				m.beginDrain(i, ml, e, now)
			}
		case mesoDraining:
			// Waiting on in-flight IO; laneQuiet advances the phase.
		case mesoIdling:
			if ml.idleStartT < 0 {
				// First boundary after the drain completed: the residual
				// power decay of the last IOs has flushed, start the
				// quiesced measurement window here.
				ml.idleStartE = e
				ml.idleStartT = now
			} else if dt := now - ml.idleStartT; dt > 0 {
				idleW := (e - ml.idleStartE) / dt.Seconds()
				ml.idleW[m.stateKey(i)] = idleW
				m.park(i, ml, now, idleW)
			}
		}
	}
	if !atEnd && m.ticks%mesoSentinelEvery == 0 {
		m.sentinel(now)
	}
}

// beginDrain starts dehydration: the draw averaged over the steady
// dwell window is the aggregate's calibration (and the verdict on any
// pending sentinel comparison), arrivals stop, and the lane drains its
// in-flight IO. A lane with no live arrival stream has no steady regime
// to calibrate; parking one is an invariant failure, reported as such.
func (m *mesoState) beginDrain(i int, ml *mesoLane, e float64, now time.Duration) {
	s := m.s
	if a := s.arrs[i]; a == nil || a.Done() {
		panic(fmt.Sprintf("serve: meso would park lane %d (group %d) with no live arrival stream", i, s.laneGroup[i]))
	}
	w := (e - ml.dwellE) / (now - ml.dwellT).Seconds()
	ml.steadyW = w
	if ml.pendingPredW >= 0 {
		frac := m.drift.Observe(ml.pendingPredW, w)
		ml.pendingPredW = -1
		if frac > s.spec.MesoDriftTolFrac {
			// The aggregate's model of this lane was wrong: keep the
			// lane mechanistic for the rest of the run.
			ml.barred = true
			return
		}
	}
	s.arrs[i].Stop()
	ml.phase = mesoDraining
	m.laneQuiet(s.lanes[i])
}

// laneQuiet advances a draining lane the moment its last in-flight IO
// completes: governors stop so the devices hold their states, and the
// lane either parks directly (idle draw cached for this power-state
// fingerprint) or enters the idling measurement.
func (m *mesoState) laneQuiet(l *lane) {
	if m.done {
		return
	}
	ml := &m.lanes[l.idx]
	if ml.phase != mesoDraining || l.inflight != 0 || l.qlen() != 0 {
		return
	}
	for _, g := range m.laneGovs(l.idx) {
		if g != nil {
			g.Stop()
		}
	}
	if w, ok := ml.idleW[m.stateKey(l.idx)]; ok {
		m.park(l.idx, ml, m.s.eng.Now(), w)
		return
	}
	ml.phase = mesoIdling
	ml.idleStartT = -1
}

func (m *mesoState) park(i int, ml *mesoLane, now time.Duration, idleW float64) {
	s := m.s
	m.pool.Park(i, meso.OperatingPoint{
		PowerW:     ml.steadyW,
		IdleW:      idleW,
		RateIOPS:   s.laneRateIOPS(now),
		BytesPerIO: s.spec.ChunkBytes,
	}, now)
	ml.phase = mesoParked
	s.res.MesoDehydrations++
	// A parking probe's measured draw calibrates its cohort bucket.
	s.grp.probeParked(i, ml.steadyW, now, &m.drift)
}

// unpark settles a parked lane's closed-form span into the shard's
// ledgers and (when restart is set) resumes mechanistic serving:
// governors restart their control loops and the arrival process
// continues on the lane's retained RNG stream for the remaining
// horizon.
func (m *mesoState) unpark(i int, now time.Duration, restart bool) {
	s := m.s
	ml := &m.lanes[i]
	set := m.pool.Unpark(i, now)
	s.res.Offered += set.IOs
	s.res.Admitted += set.IOs
	s.res.Completed += set.IOs
	s.res.BytesCompleted += set.Bytes
	s.res.MesoAggJ += set.DynJ
	s.res.MesoRehydrations++
	ml.phase = mesoHydrated
	ml.dwell = 0
	if !restart {
		return
	}
	for _, g := range m.laneGovs(i) {
		if g != nil {
			g.Start()
		}
	}
	if err := s.startLaneArrivals(i); err != nil {
		// Inputs were validated when the lane first started; a
		// failure here is a programming error, not a spec error.
		panic(fmt.Sprintf("serve: meso rehydration of lane %d: %v", i, err))
	}
	ml.prevE, ml.prevT = m.laneEnergy(i), now
	m.snapshot(i, ml)
}

// sentinel rehydrates the next parked lane in rotation for a ground
// truth check: it re-serves real traffic through a full dwell (so the
// queue ramp of the first period after restart never pollutes the
// measurement), and when it re-qualifies to park, the fresh
// calibration is compared against the aggregate's prediction.
func (m *mesoState) sentinel(now time.Duration) {
	if m.pool.ParkedCount() == 0 {
		return
	}
	n := len(m.lanes)
	for k := 0; k < n; k++ {
		i := m.cursor
		m.cursor = (m.cursor + 1) % n
		if m.lanes[i].phase == mesoParked {
			pred := m.pool.Op(i).PowerW
			m.unpark(i, now, true)
			m.lanes[i].pendingPredW = pred
			return
		}
	}
}

// rehydrateAll returns every lane to mechanistic simulation, called
// just before a budget step re-plans the shard. Comparisons pending
// across the step are dropped: the operating point legitimately
// changes with the plan.
func (m *mesoState) rehydrateAll() {
	if m.done {
		return
	}
	s := m.s
	now := s.eng.Now()
	for i := range m.lanes {
		ml := &m.lanes[i]
		switch ml.phase {
		case mesoParked:
			m.unpark(i, now, true)
		case mesoDraining, mesoIdling:
			// Arrivals were stopped at drain; an idling lane's governors
			// were stopped at quiesce. Resume both and start the dwell
			// over under the new plan.
			if ml.phase == mesoIdling {
				for _, g := range m.laneGovs(i) {
					if g != nil {
						g.Start()
					}
				}
			}
			if err := s.startLaneArrivals(i); err != nil {
				panic(fmt.Sprintf("serve: meso rehydration of lane %d: %v", i, err))
			}
			ml.phase = mesoHydrated
			ml.dwell = 0
			ml.prevE, ml.prevT = m.laneEnergy(i), now
			m.snapshot(i, ml)
		}
		ml.pendingPredW = -1
	}
}

// settle closes the tier at the horizon: every parked lane's span is
// settled through the full horizon without restarting serving, and the
// drift verdict lands in the shard result.
func (m *mesoState) settle() {
	s := m.s
	now := s.eng.Now()
	for i := range m.lanes {
		if m.lanes[i].phase == mesoParked {
			m.unpark(i, now, false)
		}
	}
	s.grp.settle(now)
	m.done = true
	s.res.MesoWorstDriftFrac = m.drift.WorstFrac()
	s.res.MesoDriftOK = m.drift.Check(s.spec.MesoDriftTolFrac) == nil
}
