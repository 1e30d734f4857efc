// Package serve is the fleet-scale serving engine: it drives hundreds
// to thousands of modeled devices under a shared power budget, the way
// the ROADMAP's production system would serve heavy user traffic.
//
// The fleet is sharded across a worker pool. Each shard is an
// independent discrete-event simulation (its own sim.Engine and derived
// RNG streams) holding a contiguous slice of the fleet: devices
// instantiated from internal/catalog profiles, optionally wrapped with
// internal/fault injection, grouped into mirrored replica groups behind
// adaptive.Redirectors. An open-loop request stream (internal/workload
// arrivals) feeds per-group queues with admission control and request
// batching, and the control plane runs online: a hull planner over
// each shard's per-profile cohorts re-plans every device's power state
// on each budget step (reserving the draw of devices that refuse the
// command and re-planning the rest), per-device adaptive.Governors
// enforce the planned draw in closed loop (retrying through injected
// command faults), and Redirectors fail IO over around dropped
// replicas.
//
// Determinism contract: the merged Report is bit-identical for the same
// Spec regardless of GOMAXPROCS or worker scheduling. Shards derive
// their seeds from the spec (never from shard execution order), results
// land in fixed slots, and every merge folds in shard-index order.
package serve

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"wattio/internal/calib"
	"wattio/internal/fault"
	"wattio/internal/grid"
	"wattio/internal/sim"
	"wattio/internal/stats"
	"wattio/internal/workload"
)

// BudgetStep is one entry of the fleet power-budget schedule: from At
// onward the fleet-wide budget is FleetW watts.
type BudgetStep struct {
	At     time.Duration
	FleetW float64
}

// ChurnEvent is one scheduled membership change: at At, Add replica
// groups of Profile join the fleet (warming for Warmup before they
// serve traffic) and/or Remove groups of Profile drain their queued and
// in-flight work and retire. Added groups hold their budget share from
// At — warm-up is a real power cost — and removed groups stop holding
// one at At, with the drain overhang absorbed by the control plane's
// per-transition settle grace. Within one event additions apply before
// removals.
type ChurnEvent struct {
	At      time.Duration
	Profile string
	Add     int
	Remove  int
	Warmup  time.Duration
}

// Spec describes one serving run. Zero values take defaults.
type Spec struct {
	// Profiles is the catalog profile mix; replica groups round-robin
	// over it. Default {"SSD2"}.
	Profiles []string
	// Size is the number of devices in the fleet. Default 64.
	Size int
	// Shards is the number of independent simulation shards. The shard
	// count is part of the spec (not derived from the host) so results
	// are machine-independent; 0 derives a deterministic default from
	// Size. Worker parallelism adapts to the host separately.
	Shards int
	// Replicas is the mirror-group size (1 = no redirection); Size must
	// be a multiple of it. Active is the number of replicas serving per
	// group; default Replicas-1 (min 1), so one replica per group rests
	// until failover needs it.
	Replicas, Active int

	// Read serves reads instead of the default writes; Seq issues
	// sequential offsets instead of the default random. The planning
	// models are calibrated against the default random-write stream;
	// other shapes still run, with the per-device governors absorbing
	// the larger plan-versus-device gap.
	Read, Seq bool
	// ChunkBytes and Depth shape the request stream per group,
	// mirroring workload.Job: request size and IOs in flight per group.
	// Defaults: 256 KiB, 64.
	ChunkBytes int64
	Depth      int
	// Batch caps how many queued requests one dispatch pass submits
	// back-to-back. Default 8.
	Batch int
	// QueueCap bounds each group's admission queue; arrivals beyond it
	// are rejected (counted, not retried). Default 4×Depth.
	QueueCap int
	// RateIOPS is the open-loop arrival rate per active device; a
	// group's rate is RateIOPS × Active. Default 3000.
	RateIOPS float64
	// Rates is an optional piecewise-constant arrival-rate schedule (a
	// diurnal load curve): from each step's At onward, every lane's
	// per-active-device rate is that step's IOPS. The first step must be
	// at 0; when set it supersedes RateIOPS (which normalization pins to
	// the first step's rate).
	Rates []workload.RateStep
	// Arrival selects the open-loop arrival process. Default OpenPoisson.
	Arrival workload.Arrival

	// Churn schedules membership changes: scale-out events that admit
	// new replica groups mid-run (with a warm-up cost before they serve)
	// and scale-in events that drain and retire groups. Events must be
	// strictly increasing in time, inside (0, Horizon), and address a
	// profile from Profiles. With churn set the fleet's live size varies
	// over the run; budget slices scale with the live population.
	Churn []ChurnEvent

	// Horizon is the virtual serving time. Default 2 s.
	Horizon time.Duration
	// ControlPeriod paces governors, power-interval accounting, and the
	// budget-tracking check. Default 100 ms.
	ControlPeriod time.Duration
	// Budget is the fleet power-budget schedule, sorted by At with the
	// first step at 0. Nil defaults to a single never-binding step at
	// the fleet's maximum planning-model power.
	Budget []BudgetStep
	// CapTolFrac is the budget-tracking tolerance as a fraction of the
	// interval budget. Default 0.10.
	CapTolFrac float64

	// Seed drives workload and device streams; FaultSeed independently
	// drives fault selection and injection, so the same traffic can be
	// replayed under different fault draws.
	Seed, FaultSeed uint64
	// FaultFrac is the fraction of devices given an injected fault
	// window (dropout or power-command failure), drawn from FaultSeed.
	FaultFrac float64
	// Faults scripts explicit fault windows onto named fleet instances
	// (see InstanceName). A scripted instance skips the FaultFrac draw;
	// all other instances are unaffected.
	Faults []DeviceFault

	// CheckInvariants attaches per-shard sliding-window power-cap and
	// clock-monotonicity probes; violations fail the run.
	CheckInvariants bool

	// Meso enables the mesoscale aggregation tier: a replica group
	// whose serving fingerprint holds steady for MesoDwellPeriods
	// control periods leaves event-driven simulation for an analytic
	// aggregate calibrated from its own measured draw, rehydrating on
	// budget steps, for periodic sentinel re-measurements, and at the
	// horizon. Fault-injected lanes never park per lane. MesoDriftTolFrac bounds
	// how far a sentinel re-measurement may disagree with the
	// aggregate's calibrated draw before the lane is barred from
	// parking again (and the report's MesoDriftOK trips). The default
	// tolerance (dwell 2 periods, tolerance 0.10) sits well above the
	// few percent of Poisson arrival noise a dwell-window average
	// carries, and well below the shifts that matter — a rate change, a
	// fault onset, or a re-plan moves a lane's draw far more than 10%.
	Meso             bool
	MesoDwellPeriods int
	MesoDriftTolFrac float64

	// MesoGroupMin enables group-level parking (requires Meso): a shard
	// cohort — the interchangeable, same-profile replica groups of its
	// slice — with at least MesoGroupMin members keeps only MesoProbes
	// resident probe lanes in mechanistic simulation; a fault-injected
	// member is resident only from the control boundary before its first
	// fault window until its first clean boundary after its last, then
	// returns to its bucket. Every other member is virtual: never
	// materialized, represented by a per-(cohort, power-state) bucket
	// holding a member count and one calibrated operating point donated
	// by the probes when they park. Budget steps re-plan over bucket
	// counts in O(#buckets), so control-period work is sublinear in
	// fleet size. 0 (the default) disables group parking entirely.
	// MesoProbes defaults to 2; raising it toward the profile's
	// power-state count speeds calibration coverage when a budget splits
	// a cohort across several states.
	MesoGroupMin int
	MesoProbes   int

	// Fitted substitutes learned device models (internal/calib) for the
	// mechanistic simulators of the named profiles: every fleet instance
	// of a mapped profile materializes as a calib.FittedDevice driven by
	// the fitted coefficients. Planning models, governors, budget
	// control, and fault wrapping are unchanged — a fitted profile is
	// just another device behind the same interface. Profiles absent
	// from the map keep their mechanistic simulators.
	Fitted map[string]*calib.Model
}

// DeviceFault scripts fault windows onto one named fleet instance.
type DeviceFault struct {
	Device  string
	Windows []fault.Window
}

// normalized returns a copy with defaults filled in, or an error when
// the spec is invalid.
func (s Spec) normalized() (Spec, error) {
	if len(s.Profiles) == 0 {
		s.Profiles = []string{"SSD2"}
	}
	for _, p := range s.Profiles {
		if _, ok := planningTable[p]; !ok {
			return s, fmt.Errorf("serve: unknown profile %q", p)
		}
	}
	for p, m := range s.Fitted {
		if _, ok := planningTable[p]; !ok {
			return s, fmt.Errorf("serve: fitted model for unknown profile %q", p)
		}
		if m == nil {
			return s, fmt.Errorf("serve: nil fitted model for profile %q", p)
		}
		if err := m.Validate(); err != nil {
			return s, fmt.Errorf("serve: fitted model for %q: %w", p, err)
		}
	}
	if s.Size == 0 {
		s.Size = 64
	}
	if s.Size < 1 {
		return s, fmt.Errorf("serve: fleet size %d must be positive", s.Size)
	}
	if s.Replicas == 0 {
		s.Replicas = 1
	}
	if s.Replicas < 1 || s.Size%s.Replicas != 0 {
		return s, fmt.Errorf("serve: fleet size %d not divisible into replica groups of %d", s.Size, s.Replicas)
	}
	if s.Active == 0 {
		s.Active = s.Replicas - 1
		if s.Active < 1 {
			s.Active = 1
		}
	}
	if s.Active < 1 || s.Active > s.Replicas {
		return s, fmt.Errorf("serve: active count %d out of [1, %d]", s.Active, s.Replicas)
	}
	groups := s.Size / s.Replicas
	if s.Shards == 0 {
		s.Shards = (groups + 15) / 16
		if s.Shards > 16 {
			s.Shards = 16
		}
	}
	if s.Shards < 1 {
		return s, fmt.Errorf("serve: shard count %d must be positive", s.Shards)
	}
	if s.Shards > groups {
		s.Shards = groups
	}
	if s.ChunkBytes == 0 {
		s.ChunkBytes = 256 << 10
	}
	if s.ChunkBytes <= 0 || s.ChunkBytes%512 != 0 {
		return s, fmt.Errorf("serve: chunk size %d invalid", s.ChunkBytes)
	}
	if s.Depth == 0 {
		s.Depth = 64
	}
	if s.Depth < 1 {
		return s, fmt.Errorf("serve: depth %d must be positive", s.Depth)
	}
	if s.Batch == 0 {
		s.Batch = 8
	}
	if s.Batch < 1 {
		return s, fmt.Errorf("serve: batch %d must be positive", s.Batch)
	}
	if s.Batch > s.Depth {
		s.Batch = s.Depth
	}
	if s.QueueCap == 0 {
		s.QueueCap = 4 * s.Depth
	}
	if s.QueueCap < 1 {
		return s, fmt.Errorf("serve: queue cap %d must be positive", s.QueueCap)
	}
	if s.RateIOPS == 0 {
		s.RateIOPS = 3000
	}
	if s.RateIOPS <= 0 {
		return s, fmt.Errorf("serve: arrival rate %v must be positive", s.RateIOPS)
	}
	if s.Arrival == workload.Closed {
		s.Arrival = workload.OpenPoisson
	}
	if s.Horizon == 0 {
		s.Horizon = 2 * time.Second
	}
	if s.Horizon <= 0 {
		return s, fmt.Errorf("serve: horizon %v must be positive", s.Horizon)
	}
	if s.ControlPeriod == 0 {
		s.ControlPeriod = 100 * time.Millisecond
	}
	if s.ControlPeriod <= 0 || s.ControlPeriod > s.Horizon {
		return s, fmt.Errorf("serve: control period %v out of (0, horizon]", s.ControlPeriod)
	}
	if s.CapTolFrac == 0 {
		s.CapTolFrac = 0.10
	}
	if s.CapTolFrac < 0 {
		return s, fmt.Errorf("serve: negative cap tolerance")
	}
	if s.FaultFrac < 0 || s.FaultFrac > 1 {
		return s, fmt.Errorf("serve: fault fraction %v out of [0, 1]", s.FaultFrac)
	}
	if s.MesoDwellPeriods == 0 {
		s.MesoDwellPeriods = 2
	}
	if s.MesoDwellPeriods < 1 {
		return s, fmt.Errorf("serve: meso dwell %d periods must be positive", s.MesoDwellPeriods)
	}
	if s.MesoDriftTolFrac == 0 {
		s.MesoDriftTolFrac = 0.10
	}
	if s.MesoDriftTolFrac < 0 {
		return s, fmt.Errorf("serve: meso drift tolerance %v must be non-negative", s.MesoDriftTolFrac)
	}
	if s.MesoGroupMin < 0 {
		return s, fmt.Errorf("serve: meso group minimum %d must be non-negative", s.MesoGroupMin)
	}
	if s.MesoGroupMin > 0 && !s.Meso {
		return s, fmt.Errorf("serve: meso group parking requires the meso tier")
	}
	if s.MesoProbes < 0 {
		return s, fmt.Errorf("serve: meso probe count %d must be non-negative", s.MesoProbes)
	}
	if s.MesoProbes > 0 && s.MesoGroupMin == 0 {
		return s, fmt.Errorf("serve: meso probes set without group parking (set MesoGroupMin)")
	}
	if s.MesoGroupMin > 0 && s.MesoProbes == 0 {
		s.MesoProbes = 2
	}
	if s.MesoGroupMin > 0 && s.MesoProbes >= s.MesoGroupMin {
		return s, fmt.Errorf("serve: meso probe count %d must be below the group minimum %d (a cohort that is all probes has nothing to virtualize)",
			s.MesoProbes, s.MesoGroupMin)
	}
	if len(s.Rates) > 0 {
		if s.Rates[0].At != 0 {
			return s, fmt.Errorf("serve: rate schedule must start at 0, got %v", s.Rates[0].At)
		}
		for i, rs := range s.Rates {
			if rs.IOPS <= 0 {
				return s, fmt.Errorf("serve: rate step %d has non-positive rate %v", i, rs.IOPS)
			}
			if i > 0 && rs.At <= s.Rates[i-1].At {
				return s, fmt.Errorf("serve: rate schedule not strictly increasing at step %d", i)
			}
			if rs.At >= s.Horizon {
				return s, fmt.Errorf("serve: rate step %d at %v is past the horizon %v", i, rs.At, s.Horizon)
			}
		}
		s.RateIOPS = s.Rates[0].IOPS
	}
	if len(s.Churn) > 0 {
		// Simulate per-profile live group counts so every removal is
		// known to have a target and no cohort ever empties out.
		P := len(s.Profiles)
		live := make([]int, P)
		for g := 0; g < s.Size/s.Replicas; g++ {
			live[g%P]++
		}
		for i, ev := range s.Churn {
			if ev.At <= 0 || ev.At >= s.Horizon {
				return s, fmt.Errorf("serve: churn event %d at %v outside (0, horizon)", i, ev.At)
			}
			if i > 0 && ev.At <= s.Churn[i-1].At {
				return s, fmt.Errorf("serve: churn schedule not strictly increasing at event %d", i)
			}
			pi := -1
			for j, p := range s.Profiles {
				if p == ev.Profile {
					pi = j
					break
				}
			}
			if pi < 0 {
				return s, fmt.Errorf("serve: churn event %d addresses unknown cohort %q (profiles are %v)", i, ev.Profile, s.Profiles)
			}
			if ev.Add < 0 || ev.Remove < 0 || ev.Add+ev.Remove == 0 {
				return s, fmt.Errorf("serve: churn event %d must add or remove at least one group", i)
			}
			if ev.Warmup < 0 {
				return s, fmt.Errorf("serve: churn event %d has negative warm-up %v", i, ev.Warmup)
			}
			if ev.Add > 0 && ev.At+ev.Warmup >= s.Horizon {
				return s, fmt.Errorf("serve: churn event %d warm-up ends at %v, past the horizon %v", i, ev.At+ev.Warmup, s.Horizon)
			}
			live[pi] += ev.Add
			if ev.Remove >= live[pi] {
				return s, fmt.Errorf("serve: churn event %d removes %d of cohort %q's %d live groups (at least one must remain)",
					i, ev.Remove, ev.Profile, live[pi])
			}
			live[pi] -= ev.Remove
		}
	}
	if len(s.Budget) == 0 {
		var maxW float64
		for gi := 0; gi < groups; gi++ {
			maxW += float64(s.Replicas) * profileMaxW(s.Profiles[gi%len(s.Profiles)])
		}
		s.Budget = []BudgetStep{{At: 0, FleetW: maxW * 1.01}}
	}
	if s.Budget[0].At != 0 {
		return s, fmt.Errorf("serve: budget schedule must start at 0, got %v", s.Budget[0].At)
	}
	for i, st := range s.Budget {
		if st.FleetW <= 0 {
			return s, fmt.Errorf("serve: budget step %d has non-positive power %v", i, st.FleetW)
		}
		if i > 0 && st.At <= s.Budget[i-1].At {
			return s, fmt.Errorf("serve: budget schedule not strictly increasing at step %d", i)
		}
		if st.At >= s.Horizon {
			return s, fmt.Errorf("serve: budget step %d at %v is past the horizon %v", i, st.At, s.Horizon)
		}
	}
	// Fault targets are checked structurally (parse, bounds, profile
	// round-trip) rather than against an enumerated name set: validation
	// stays O(#fault-stanzas) no matter the fleet size.
	for _, df := range s.Faults {
		profile, i, err := ParseInstanceName(df.Device)
		if err != nil || i >= s.Size || s.profileOf(i) != profile {
			return s, fmt.Errorf("serve: fault script targets unknown instance %q (names are %q)",
				df.Device, InstanceName(s.profileOf(0), 0))
		}
		if len(df.Windows) == 0 {
			return s, fmt.Errorf("serve: fault script for %q has no windows", df.Device)
		}
	}
	return s, nil
}

// rawStep is one structurally-parsed schedule step, before any fleet
// size is applied: the step time, the watts value as written, and
// whether the "pd" (per-device) suffix was present.
type rawStep struct {
	at     time.Duration
	watts  float64
	perDev bool
}

// parseScheduleSteps is the structural half of schedule parsing, shared
// by ParseSchedule (which scales per-device steps by a fleet size) and
// ScheduleKey (which must stay size-free so two spellings of the same
// schedule compare equal at every fleet size).
func parseScheduleSteps(text string) ([]rawStep, error) {
	if strings.TrimSpace(text) == "" {
		return nil, fmt.Errorf("serve: empty budget schedule")
	}
	var out []rawStep
	for _, part := range strings.Split(text, ",") {
		at, watts, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("serve: budget step %q is not duration:watts", part)
		}
		d, err := time.ParseDuration(at)
		if err != nil {
			return nil, fmt.Errorf("serve: budget step %q: %v", part, err)
		}
		perDev := false
		if strings.HasSuffix(watts, "pd") {
			perDev = true
			watts = strings.TrimSuffix(watts, "pd")
		}
		w, err := strconv.ParseFloat(watts, 64)
		if err != nil {
			return nil, fmt.Errorf("serve: budget step %q: bad watts %q", part, watts)
		}
		if n := len(out); n > 0 {
			switch {
			case d == out[n-1].at:
				return nil, fmt.Errorf("serve: budget step %q repeats step time %v", part, d)
			case d < out[n-1].at:
				return nil, fmt.Errorf("serve: budget step %q goes backward (%v after %v)", part, d, out[n-1].at)
			}
		}
		out = append(out, rawStep{at: d, watts: w, perDev: perDev})
	}
	return out, nil
}

// ParseSchedule parses a budget schedule flag: comma-separated
// "duration:watts" steps, e.g. "0s:640,1s:448". A "pd" suffix on the
// watts makes the value per-device, scaled by the fleet size:
// "0s:14pd" means size × 14 W. Step times must be strictly increasing;
// empty schedules, duplicate times, and backward steps are rejected
// with the offending segment named — scenario validation surfaces
// these messages verbatim.
func ParseSchedule(text string, size int) ([]BudgetStep, error) {
	steps, err := parseScheduleSteps(text)
	if err != nil {
		return nil, err
	}
	out := make([]BudgetStep, len(steps))
	for i, st := range steps {
		w := st.watts
		if st.perDev {
			w *= float64(size)
		}
		out[i] = BudgetStep{At: st.at, FleetW: w}
	}
	return out, nil
}

// ScheduleKey returns the canonical re-encoding of a budget schedule
// flag — fixed duration rendering, minimal float form, the "pd" suffix
// preserved — so two spellings of the same schedule ("0s:14.60pd" and
// " 0s:14.6pd") produce the same key at every fleet size. Scenario grid
// validation uses it to reject duplicate budget-axis values.
func ScheduleKey(text string) (string, error) {
	steps, err := parseScheduleSteps(text)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for i, st := range steps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(st.at.String())
		b.WriteByte(':')
		b.WriteString(strconv.FormatFloat(st.watts, 'g', -1, 64))
		if st.perDev {
			b.WriteString("pd")
		}
	}
	return b.String(), nil
}

// Interval is one control-period slice of the merged power accounting.
type Interval struct {
	Start time.Duration
	Dur   time.Duration
	// BudgetW is the scheduled budget averaged over the interval: equal
	// to the step in force at Start for most intervals, time-weighted
	// across the transition for an interval a budget step lands inside.
	BudgetW   float64
	AchievedW float64
	// Checked is false for the one interval per budget step that falls
	// inside the step's settle window (see stepGraces): tracking binds
	// again exactly one control period after each transition, no matter
	// how the step aligns with interval boundaries. The initial plan
	// application at t=0 gets the same grace — devices enter the horizon
	// in their power-on state with full burst allowances.
	Checked bool
}

// Report is the merged outcome of a serving run. For a fixed Spec it is
// bit-identical regardless of host parallelism.
type Report struct {
	Devices, Groups, Shards, Faulted int

	Offered, Admitted, Rejected, Completed int64
	Batches                                int64
	BytesCompleted                         int64
	ThroughputMBps                         float64
	LatP50, LatP99, LatMax                 time.Duration

	// SimulatedDur is the virtual time the run actually covered: the
	// horizon, extended by whatever post-horizon drain the slowest shard
	// needed to complete its in-flight IO (a dropout window releasing
	// held requests can push this well past the horizon). ThroughputMBps
	// divides by it, not the nominal horizon.
	SimulatedDur time.Duration
	// Events is the total number of kernel events dispatched across all
	// shards — the deterministic measure of mechanistic simulation work
	// (wall clock is host-dependent; this is not).
	Events uint64

	Intervals  []Interval
	AvgPowerW  float64
	WorstOverW float64
	TrackOK    bool

	GovSteps, GovRetries, GovFailures int
	// Replans counts feasible budget plans applied, Infeasible the
	// re-plans whose slice could not cover every member at its cheapest
	// level, and Compensations the extra plan passes forced by devices
	// refusing their power-state command (see groupState.apply).
	Replans, Compensations, Infeasible int
	Failovers, WakesOnDemand           int

	CapOK     bool
	CapWorstW float64

	// Mesoscale-tier accounting (zero unless Spec.Meso is set).
	// MesoDehydrations counts lane transitions out of event-driven
	// simulation into the analytic aggregate; MesoRehydrations the
	// reverse. MesoParkedPeriods counts lane×control-period units served
	// analytically, and MesoAggJ is the dynamic (above-idle) energy the
	// aggregates accounted. MesoWorstDriftFrac is the worst relative
	// disagreement any sentinel re-measurement observed between an
	// aggregate's calibrated power and the mechanistic re-simulation;
	// MesoDriftOK is whether every observation stayed within the spec's
	// drift tolerance.
	MesoDehydrations, MesoRehydrations int
	MesoParkedPeriods                  int
	MesoAggJ                           float64
	MesoWorstDriftFrac                 float64
	MesoDriftOK                        bool

	// Group-parking accounting (zero unless Spec.MesoGroupMin is set).
	// MesoGroupLanes is how many lanes ran as virtual cohort members
	// (never materialized); MesoGroupBuckets how many (cohort,
	// power-state) aggregate buckets ever existed; MesoGroupScans the
	// total bucket slots touched across every group re-plan — the
	// control-period cost that replaces the O(#lanes) scan; MesoGroupJ
	// the energy attributed to virtual members from probe-calibrated
	// operating points. Virtual members also count into
	// MesoParkedPeriods each control period.
	MesoGroupLanes, MesoGroupBuckets, MesoGroupScans int
	MesoGroupJ                                       float64

	// Lane-lifecycle accounting (zero unless Spec.Churn is set).
	// ChurnAdds/ChurnRemoves count replica groups admitted and retired
	// mid-run. Warm-up recovery latency is admission (the churn event)
	// to a lane's first completed request — virtual cohort members
	// report their modeled warm-up instead; drain recovery latency is
	// the removal event to the last in-flight completion of a resident
	// group. ChurnDrains counts those mechanistic drains: a virtual
	// member's queue is analytic, so its removal records no drain.
	// ChurnDrainsBegun counts the resident drains a removal started; a
	// drain that never completes shows as ChurnDrains < ChurnDrainsBegun.
	// A fault-window member draining back into its bucket is no churn
	// drain and counts in neither. Quantiles cover the groups whose
	// transition completed inside the simulated window.
	ChurnAdds, ChurnRemoves, ChurnDrains int
	ChurnDrainsBegun                     int
	WarmupP50, WarmupMax                 time.Duration
	DrainP50, DrainMax                   time.Duration
}

// Run executes the serving engine and returns the merged report.
func Run(spec Spec) (*Report, error) {
	sp, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	groups := sp.Size / sp.Replicas

	// Partition replica groups into contiguous shard ranges.
	ranges := make([]shardRange, sp.Shards)
	base, rem := groups/sp.Shards, groups%sp.Shards
	g := 0
	for i := range ranges {
		n := base
		if i < rem {
			n++
		}
		ranges[i] = shardRange{g0: g, g1: g + n}
		g += n
	}

	churn := compileChurn(&sp, ranges)

	results := make([]*shardResult, sp.Shards)
	errs := make([]error, sp.Shards)
	grid.Pool(sp.Shards, runtime.GOMAXPROCS(0), func(i int) {
		eng := sim.NewEngine()
		errs[i] = guardShard(eng, func() (err error) {
			results[i], err = runShard(&sp, eng, i, ranges[i], churnFor(churn, i))
			return err
		})
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
	}
	return merge(&sp, results), nil
}

// guardShard runs one shard body, turning a panic into an error that
// names the simulated time it struck at: one broken shard fails its run
// with an error instead of taking the process down.
func guardShard(eng *sim.Engine, body func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic at simulated time %v: %v", eng.Now(), r)
		}
	}()
	return body()
}

// merge folds the per-shard results in shard-index order, so every sum
// has a fixed association order and the report stays bit-identical.
func merge(sp *Spec, results []*shardResult) *Report {
	r := &Report{
		Devices:      sp.Size,
		Groups:       sp.Size / sp.Replicas,
		Shards:       sp.Shards,
		TrackOK:      true,
		CapOK:        true,
		MesoDriftOK:  true,
		SimulatedDur: sp.Horizon,
	}
	var lat []time.Duration
	var warmLats, drainLats []time.Duration
	nIntervals := len(results[0].IntervalEnergyJ)
	energy := make([]float64, nIntervals)
	for _, s := range results {
		r.Faulted += s.Faulted
		r.Offered += s.Offered
		r.Admitted += s.Admitted
		r.Rejected += s.Rejected
		r.Completed += s.Completed
		r.Batches += s.Batches
		r.BytesCompleted += s.BytesCompleted
		r.GovSteps += s.GovSteps
		r.GovRetries += s.GovRetries
		r.GovFailures += s.GovFailures
		r.Replans += s.Replans
		r.Compensations += s.Compensations
		r.Infeasible += s.Infeasible
		r.Failovers += s.Failovers
		r.WakesOnDemand += s.WakesOnDemand
		if !s.CapOK {
			r.CapOK = false
		}
		if s.CapWorstW > r.CapWorstW {
			r.CapWorstW = s.CapWorstW
		}
		for k, e := range s.IntervalEnergyJ {
			energy[k] += e
		}
		lat = append(lat, s.Latencies...)
		if s.EndAt > r.SimulatedDur {
			r.SimulatedDur = s.EndAt
		}
		r.Events += s.Events
		r.MesoDehydrations += s.MesoDehydrations
		r.MesoRehydrations += s.MesoRehydrations
		r.MesoParkedPeriods += s.MesoParkedPeriods
		r.MesoAggJ += s.MesoAggJ
		r.MesoGroupLanes += s.MesoGroupLanes
		r.MesoGroupBuckets += s.MesoGroupBuckets
		r.MesoGroupScans += s.MesoGroupScans
		r.MesoGroupJ += s.MesoGroupJ
		if s.MesoWorstDriftFrac > r.MesoWorstDriftFrac {
			r.MesoWorstDriftFrac = s.MesoWorstDriftFrac
		}
		if !s.MesoDriftOK {
			r.MesoDriftOK = false
		}
		r.ChurnAdds += s.ChurnAdds
		r.ChurnRemoves += s.ChurnRemoves
		r.ChurnDrainsBegun += s.ChurnDrainsBegun
		warmLats = append(warmLats, s.WarmupLats...)
		drainLats = append(drainLats, s.DrainLats...)
	}
	r.WarmupP50, r.WarmupMax = latQuantiles(warmLats)
	r.DrainP50, r.DrainMax = latQuantiles(drainLats)
	r.ChurnDrains = len(drainLats)

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if n := len(lat); n > 0 {
		fl := make([]float64, n)
		for i, l := range lat {
			fl[i] = float64(l)
		}
		r.LatP50 = time.Duration(stats.Quantile(fl, 0.50))
		r.LatP99 = time.Duration(stats.Quantile(fl, 0.99))
		r.LatMax = lat[n-1]
	}
	// Throughput is bytes over the virtual time the run actually covered,
	// not the nominal horizon: a fault-heavy run whose drain releases held
	// IO past the horizon served those bytes over the longer window, and
	// dividing by the horizon would overstate the rate.
	r.ThroughputMBps = float64(r.BytesCompleted) / 1e6 / r.SimulatedDur.Seconds()

	// Control-plane transitions outside the budget schedule — churn
	// epochs, warm-up completions, rate-schedule boundaries — re-plan the
	// fleet the same way a budget step does, and get the same one-period
	// settle grace. Empty when churn and rate schedules are off, so the
	// interval accounting is unchanged for every existing spec.
	var extraGraces []time.Duration
	for _, ev := range sp.Churn {
		extraGraces = append(extraGraces, ev.At)
		if ev.Add > 0 {
			extraGraces = append(extraGraces, ev.At+ev.Warmup)
		}
	}
	if len(sp.Rates) > 1 {
		for _, rs := range sp.Rates[1:] {
			extraGraces = append(extraGraces, rs.At)
		}
	}

	var totalE float64
	lastStart := time.Duration(nIntervals-1) * sp.ControlPeriod
	for k := 0; k < nIntervals; k++ {
		start := time.Duration(k) * sp.ControlPeriod
		end := start + sp.ControlPeriod
		if end > sp.Horizon {
			end = sp.Horizon
		}
		iv := Interval{
			Start:     start,
			Dur:       end - start,
			BudgetW:   avgBudgetW(sp.Budget, start, end),
			AchievedW: energy[k] / (end - start).Seconds(),
			Checked:   true,
		}
		for _, st := range sp.Budget {
			if stepGraces(st.At, start, end, sp.ControlPeriod, lastStart) {
				iv.Checked = false
			}
		}
		for _, t := range extraGraces {
			if stepGraces(t, start, end, sp.ControlPeriod, lastStart) {
				iv.Checked = false
			}
		}
		totalE += energy[k]
		if iv.Checked {
			over := iv.AchievedW - iv.BudgetW
			if over > r.WorstOverW {
				r.WorstOverW = over
			}
			if iv.AchievedW > iv.BudgetW*(1+sp.CapTolFrac) {
				r.TrackOK = false
			}
		}
		r.Intervals = append(r.Intervals, iv)
	}
	r.AvgPowerW = totalE / sp.Horizon.Seconds()
	return r
}

// latQuantiles returns the p50 and maximum of a latency sample, sorting
// it in place; zeros when the sample is empty.
func latQuantiles(lats []time.Duration) (p50, max time.Duration) {
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	fl := make([]float64, len(lats))
	for i, l := range lats {
		fl[i] = float64(l)
	}
	return time.Duration(stats.Quantile(fl, 0.50)), lats[len(lats)-1]
}

// budgetAt returns the scheduled fleet budget in force at time t: the
// last step whose time is at or before t (a step binds exactly at its
// own time). ParseSchedule guarantees the first step is at 0 and times
// strictly increase, so the scan's final match is the binding step.
func budgetAt(sched []BudgetStep, t time.Duration) float64 {
	w := sched[0].FleetW
	for _, st := range sched {
		if st.At <= t {
			w = st.FleetW
		}
	}
	return w
}

// stepGraces reports whether the budget step at stepAt graces the
// control interval [start, end). The settle window after a step is
// [stepAt, stepAt+cp): governors get one full control period to pull
// the fleet onto the new plan, so the single interval whose start lies
// in that window is exempt from tracking. Every step thereby graces
// exactly one interval regardless of boundary alignment — a step
// landing exactly on an interval boundary graces that interval, a
// mid-interval step graces the next one (its own interval is instead
// checked against the time-weighted budget, see avgBudgetW). A step
// inside the run's final interval has no following interval to grace,
// so the interval containing it takes the grace. The previous overlap
// rule graced both intervals touching the window, so an unaligned step
// silently stretched the grace toward two periods. lastStart is the
// start of the run's final interval.
func stepGraces(stepAt, start, end, cp, lastStart time.Duration) bool {
	if stepAt <= start && start < stepAt+cp {
		return true
	}
	// First interval start at or after the step; when it lies beyond the
	// final interval the window rule above can never match, and the
	// grace falls back to the interval the step lands in.
	next := (stepAt + cp - 1) / cp * cp
	return next > lastStart && start <= stepAt && stepAt < end
}

// avgBudgetW returns the scheduled budget averaged over [start, end):
// budgetAt(start) when no step lands strictly inside the interval,
// otherwise the exact time-weighted mean across the transition(s). An
// interval split by a step ran part under the old budget and part under
// the new; its energy-derived AchievedW can only be compared against
// the same time weighting.
func avgBudgetW(sched []BudgetStep, start, end time.Duration) float64 {
	t, acc := start, 0.0
	for _, st := range sched {
		if st.At <= start {
			continue
		}
		if st.At >= end {
			break
		}
		acc += budgetAt(sched, t) * float64(st.At-t)
		t = st.At
	}
	if t == start {
		return budgetAt(sched, start)
	}
	acc += budgetAt(sched, t) * float64(end-t)
	return acc / float64(end-start)
}
