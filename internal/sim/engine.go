// Package sim provides the discrete-event simulation kernel that drives
// every experiment in wattio: a virtual nanosecond clock, an event queue,
// and deterministic random number streams.
//
// Nothing in the simulator reads wall-clock time. A sixty-second power
// measurement runs in milliseconds of host time and is bit-for-bit
// reproducible given the same seed.
//
// The event queue is the hottest loop in the repository (the fleet
// experiment pushes ~10^8 events through it), so the kernel is built to
// run allocation-free at steady state:
//
//   - the priority queues are inlined 4-ary min-heaps specialized to
//     *Timer — no interface boxing, no container/heap dispatch, and a
//     quarter of the sift depth of a binary heap;
//   - serialized resources (Chain) keep one representative each, in a
//     heap of their own: a fleet holds hundreds of idle plain timers
//     (governor, probe, arrival, power-state timers) far in the future,
//     and a die event re-keying its chain must not sift past them;
//   - fire-and-forget events (Post/PostAfter) draw their Timer from a
//     per-engine free list and return it after firing;
//   - recurring work re-arms a single Timer in place (Reschedule,
//     Periodic) instead of allocating a fresh timer and closure per tick;
//   - stopped timers are removed from the heap eagerly via their tracked
//     heap index, so the queue never accumulates garbage and Pending is
//     O(1).
package sim

import (
	"fmt"
	"time"

	"wattio/internal/telemetry"
)

// heapGaugeMask amortizes the heap-depth telemetry gauge (the entries
// in the timer heap plus the rep heap; parked reps are not counted):
// the gauge is refreshed once every heapGaugeMask+1 dispatches rather
// than on every schedule and pop. The gauge is a monitoring aid, not an
// input to any simulation result, so sampling it is free accuracy-wise;
// writing it per event showed up in kernel profiles.
const heapGaugeMask = 1023

// Engine is a discrete-event scheduler over virtual time.
//
// Events scheduled for the same instant fire in scheduling order (FIFO),
// which keeps co-timed device and sampler events deterministic.
// Engine is not safe for concurrent use; the simulation is single-threaded
// by design so that results are reproducible.
type Engine struct {
	now time.Duration
	// Two 4-ary min-heaps ordered by (at, seq). timers holds plain
	// timers (Schedule, Post, Periodic); reps holds the representatives
	// of chains whose head fires inside the near window. Every peek
	// takes the smaller of the two roots, so fire order is the single
	// global (at, seq) order however an event is carried.
	timers heap4
	reps   heap4
	seq    uint64

	free *Timer // free list of pooled (Post) timers

	// chainExtra counts events queued on Chains but not represented in
	// the heap or on the wheel: every event beyond a chain's head, plus
	// the head itself while the chain is parked. Pending sums it in.
	chainExtra int

	// Timing wheel holding chain representatives whose head event lies
	// beyond the near window [wBase, wBase+wheelWidth). Parked reps cost
	// O(1) to file and O(1) amortized to surface, versus a full-depth
	// heap sift per re-key; the rep heap stays a few entries deep even
	// with thousands of concurrently busy resources.
	// Invariant: every parked rep has at >= wBase+wheelWidth, so the two
	// heap roots always hold the global minimum once ensureNear returns.
	// Only chain reps park — they never Stop or Reschedule, so the wheel
	// needs no removal path. The bucket array is allocated on first use.
	wBase       time.Duration
	wheel       []*Timer // bucket lists linked through Timer.next
	wheelCnt    int
	overflow    *Timer // reps beyond the wheel span; re-filed once per revolution
	overflowCnt int

	// deadline is the active RunUntil bound (-1 outside RunUntil). It is
	// exposed through Deadline so batching samplers (measure.Rig) know
	// how far they may synthesize ticks without overrunning the run.
	deadline time.Duration

	dispatched uint64

	// Telemetry taps. All are nil-safe no-ops when telemetry is off,
	// so the hot path pays one predicted branch per call.
	metrics  *telemetry.Registry
	tracer   *telemetry.Tracer
	cEvents  *telemetry.Counter
	cStopped *telemetry.Counter
	gHeap    *telemetry.Gauge
}

// NewEngine returns an Engine with the clock at zero and no pending
// events, tapped into the process-default telemetry (telemetry.Default)
// if one is installed.
func NewEngine() *Engine {
	e := &Engine{deadline: -1}
	e.EnableTelemetry(telemetry.Default(), telemetry.DefaultTracer())
	return e
}

// EnableTelemetry attaches a metrics registry and a tracer to the
// engine (either may be nil). Devices and workloads read these at
// construction time via Metrics and Tracer, so call it before building
// the testbed on the engine.
func (e *Engine) EnableTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	e.metrics = reg
	e.tracer = tr
	e.cEvents = reg.Counter("sim_events_dispatched_total")
	e.cStopped = reg.Counter("sim_events_stopped_total")
	e.gHeap = reg.Gauge("sim_heap_depth")
}

// Metrics returns the engine's metrics registry; nil when telemetry is
// disabled (handles from a nil registry are no-ops, so callers may use
// the result unconditionally).
func (e *Engine) Metrics() *telemetry.Registry { return e.metrics }

// Tracer returns the engine's event tracer; nil when tracing is
// disabled (a nil tracer discards events, so callers may use the
// result unconditionally).
func (e *Engine) Tracer() *telemetry.Tracer { return e.tracer }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Timer is a handle to a scheduled event. A Timer may be stopped before
// it fires, and re-armed afterwards (or while pending) with Reschedule;
// stopping an already-fired or already-stopped timer is a no-op.
type Timer struct {
	at     time.Duration
	seq    uint64
	fn     func()
	eng    *Engine
	next   *Timer        // free-list or wheel-bucket link
	index  int           // index in its heap (timers, or reps for a chain rep), -1 when not queued
	period time.Duration // >0: auto re-arm after firing (Periodic)
	chain  *Chain        // chain this timer represents, nil for plain timers

	pooled  bool // owned by the engine free list; no external handle exists
	stopped bool
	firing  bool // its callback is executing right now
}

// At returns the virtual time the timer is (or was) scheduled to fire.
func (t *Timer) At() time.Duration { return t.at }

// Pending reports whether the timer is queued to fire.
func (t *Timer) Pending() bool { return t.index >= 0 }

// Stop cancels the timer, removing it from the event queue immediately.
// It reports whether the timer was still pending. Calling Stop from
// inside the timer's own callback cancels a Periodic re-arm.
func (t *Timer) Stop() bool {
	if t.index < 0 {
		if t.firing && !t.stopped {
			// Stopped from inside its own callback: nothing is queued,
			// but mark it so a Periodic timer does not re-arm.
			t.stopped = true
			return true
		}
		return false
	}
	if t.stopped {
		return false
	}
	t.stopped = true
	e := t.eng
	e.timers.remove(t.index)
	e.cStopped.Inc()
	if t.pooled {
		t.recycle()
	}
	return true
}

// Reschedule re-arms the timer to fire its function at absolute virtual
// time at, whether the timer is pending (it is moved in place), stopped,
// or has already fired. The re-armed firing takes a fresh scheduling
// sequence number, exactly as scheduling a new timer at this point
// would, so converting an allocate-per-tick loop to Reschedule preserves
// event order bit-for-bit. Like Schedule it panics on times in the past.
func (t *Timer) Reschedule(at time.Duration) {
	e := t.eng
	if at < e.now {
		panic(fmt.Sprintf("sim: reschedule at %v before now %v", at, e.now))
	}
	if t.pooled {
		panic("sim: reschedule of a pooled (Post) timer")
	}
	if t.fn == nil {
		panic("sim: reschedule of an unarmed timer")
	}
	t.stopped = false
	t.at = at
	t.seq = e.seq
	e.seq++
	if t.index >= 0 {
		e.timers.fix(t.index)
	} else {
		e.timers.push(t)
	}
}

// RescheduleAfter re-arms the timer to fire when d has elapsed from the
// current virtual time.
func (t *Timer) RescheduleAfter(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	t.Reschedule(t.eng.now + d)
}

// recycle returns a pooled timer to the engine free list, dropping its
// closure so a recycled Timer can never fire (or retain) a stale one.
func (t *Timer) recycle() {
	t.fn = nil
	t.period = 0
	t.next = t.eng.free
	t.eng.free = t
}

// Schedule runs fn at absolute virtual time at and returns a handle the
// caller owns: it may be stopped and re-armed with Reschedule, and is
// never recycled by the engine. Scheduling in the past (before Now)
// panics: it would silently reorder causality.
func (e *Engine) Schedule(at time.Duration, fn func()) *Timer {
	e.checkSchedule(at, fn)
	t := &Timer{at: at, seq: e.seq, fn: fn, eng: e, index: -1}
	e.seq++
	e.timers.push(t)
	return t
}

// After runs fn when d has elapsed from the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, fn)
}

// Post runs fn at absolute virtual time at, fire-and-forget: no handle
// is returned, and the timer backing the event is drawn from (and
// returned to) the engine's free list, so a steady-state event stream
// allocates nothing. Use it for the one-shot completion events device
// models emit per IO; use Schedule when the caller needs to Stop or
// Reschedule the event.
func (e *Engine) Post(at time.Duration, fn func()) {
	e.checkSchedule(at, fn)
	t := e.free
	if t != nil {
		e.free = t.next
		t.next = nil
		t.stopped = false
	} else {
		t = &Timer{eng: e, pooled: true, index: -1}
	}
	t.at = at
	t.seq = e.seq
	t.fn = fn
	e.seq++
	e.timers.push(t)
}

// PostAfter runs fn when d has elapsed, fire-and-forget (see Post).
func (e *Engine) PostAfter(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.Post(e.now+d, fn)
}

// Periodic runs fn every `every` of virtual time, first at now+every.
// After each firing the same Timer re-arms itself in place — no
// allocation per tick. The callback may Stop the timer (ending the
// series) or Reschedule it (overriding the next firing time, after
// which the period cadence resumes from the new time).
func (e *Engine) Periodic(every time.Duration, fn func()) *Timer {
	if every <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", every))
	}
	at := e.now + every
	e.checkSchedule(at, fn)
	t := &Timer{at: at, seq: e.seq, fn: fn, eng: e, index: -1, period: every}
	e.seq++
	e.timers.push(t)
	return t
}

func (e *Engine) checkSchedule(at time.Duration, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule with nil func")
	}
}

// --- timing wheel for far chain representatives --------------------------

const (
	wheelShift   = 9 // bucket width 2^9 ns ≈ 0.5µs
	wheelWidth   = time.Duration(1) << wheelShift
	wheelBuckets = 1 << 17
	wheelMask    = wheelBuckets - 1
	wheelSpan    = wheelWidth * wheelBuckets // ≈ 67 ms
)

// armRep files a chain representative: into the rep heap when its head
// fires inside the current window, onto the wheel otherwise.
func (e *Engine) armRep(t *Timer) {
	if t.at < e.wBase+wheelWidth {
		e.reps.push(t)
	} else {
		e.park(t)
	}
}

// park files a far representative in its wheel bucket (or the overflow
// list when it lies beyond the wheel span). Caller guarantees
// t.at >= wBase+wheelWidth.
//
// Boundary semantics, pinned: the wheel covers (wBase+wheelWidth-1) up
// to and including wBase+wheelSpan — a rep exactly one full revolution
// out files into the just-surfaced current bucket and comes around
// precisely at its due time. Only reps strictly beyond the span go to
// the overflow list. The re-file path in wheelAdvance uses the same
// inclusive comparison, so a rep at the exact span boundary never
// round-trips through overflow.
func (e *Engine) park(t *Timer) {
	if e.wheel == nil {
		e.wheel = make([]*Timer, wheelBuckets)
	}
	if e.wheelCnt == 0 && e.overflowCnt == 0 {
		// Wheel empty: jump the window forward so a sparse schedule does
		// not force events through the overflow list. Rep-heap entries
		// are unaffected — the near/far split applies only at arm time.
		if b := t.at>>wheelShift<<wheelShift - wheelWidth; b > e.wBase {
			e.wBase = b
		}
	}
	if t.at-e.wBase > wheelSpan {
		t.next = e.overflow
		e.overflow = t
		e.overflowCnt++
		return
	}
	j := int(t.at>>wheelShift) & wheelMask
	t.next = e.wheel[j]
	e.wheel[j] = t
	e.wheelCnt++
}

// wheelRemove unlinks a parked representative from its wheel bucket or
// the overflow list. It is the removal path Chain.Park needs: parked
// reps never Stop or Reschedule, so nothing else removes them. The
// bucket is recomputed from the rep's time; a rep whose bucket has come
// due since it was filed would have been surfaced into the rep heap, so the
// computed bucket (falling back to the overflow list, which re-files
// lazily) always finds it.
func (e *Engine) wheelRemove(t *Timer) {
	if e.wheel != nil && t.at-e.wBase <= wheelSpan {
		j := int(t.at>>wheelShift) & wheelMask
		if listRemove(&e.wheel[j], t) {
			e.wheelCnt--
			return
		}
	}
	if listRemove(&e.overflow, t) {
		e.overflowCnt--
		return
	}
	panic("sim: parked chain representative not found on wheel or overflow")
}

// listRemove unlinks t from a singly-linked Timer list, reporting
// whether it was found.
func listRemove(head **Timer, t *Timer) bool {
	for p := head; *p != nil; p = &(*p).next {
		if *p == t {
			*p = t.next
			t.next = nil
			return true
		}
	}
	return false
}

// wheelAdvance moves the near window forward one bucket, surfacing the
// reps whose time has come into the rep heap. Once per revolution the
// overflow list is re-filed.
func (e *Engine) wheelAdvance() {
	e.wBase += wheelWidth
	j := int(e.wBase>>wheelShift) & wheelMask
	for t := e.wheel[j]; t != nil; {
		next := t.next
		t.next = nil
		e.wheelCnt--
		if t.at < e.wBase+wheelWidth {
			e.reps.push(t)
		} else {
			// Span-aliased: a full revolution (or more) out.
			t.next = e.overflow
			e.overflow = t
			e.overflowCnt++
		}
		t = next
	}
	e.wheel[j] = nil
	if j == 0 && e.overflowCnt > 0 {
		var keep *Timer
		keepN := 0
		for t := e.overflow; t != nil; {
			next := t.next
			t.next = nil
			switch {
			case t.at < e.wBase+wheelWidth:
				e.reps.push(t)
			case t.at-e.wBase <= wheelSpan:
				// Inclusive at the span boundary, matching park: a rep
				// exactly one revolution out belongs on the wheel.
				jj := int(t.at>>wheelShift) & wheelMask
				t.next = e.wheel[jj]
				e.wheel[jj] = t
				e.wheelCnt++
			default:
				t.next = keep
				keep = t
				keepN++
			}
			t = next
		}
		e.overflow, e.overflowCnt = keep, keepN
	}
}

// ensureNear advances the wheel until the heaps provably hold the
// earliest pending event: either a heap root fires inside the current
// window (parked reps are all later) or nothing is parked at all. Every
// peek and pop goes through here; in the steady state it is a compare
// or two against the roots.
func (e *Engine) ensureNear() {
	for e.wheelCnt > 0 || e.overflowCnt > 0 {
		lim := e.wBase + wheelWidth
		if len(e.reps) > 0 && e.reps[0].at < lim || len(e.timers) > 0 && e.timers[0].at < lim {
			return
		}
		e.wheelAdvance()
	}
}

// repFirst reports whether the rep heap's root is the earliest queued
// event, ordering before the timer heap's root (or the timer heap is
// empty). Callers run ensureNear first.
func (e *Engine) repFirst() bool {
	return len(e.reps) > 0 && (len(e.timers) == 0 || entryLess(e.reps[0], e.timers[0]))
}

// peek returns the earliest queued heap entry, and whether one exists.
// Callers run ensureNear first.
func (e *Engine) peek() (heapEntry, bool) {
	if e.repFirst() {
		return e.reps[0], true
	}
	if len(e.timers) > 0 {
		return e.timers[0], true
	}
	return heapEntry{}, false
}

// Step fires the next pending event, advancing the clock to its time.
// It reports whether an event fired (false when the queue is drained).
func (e *Engine) Step() bool { return e.step(maxTime) }

// maxTime bounds Step's dispatch: no event lies beyond it.
const maxTime = time.Duration(1<<63 - 1)

// step fires the next pending event if it is due at or before limit,
// reporting whether one fired.
func (e *Engine) step(limit time.Duration) bool {
	e.ensureNear()
	if e.repFirst() {
		if e.reps[0].at > limit {
			return false
		}
		e.fireChain(e.reps[0].t)
		return true
	}
	if len(e.timers) == 0 || e.timers[0].at > limit {
		return false
	}
	t := e.timers.pop()
	// The virtual clock is monotone by construction (Schedule rejects
	// the past, the heap orders by time); this check turns any future
	// violation of that invariant into a loud failure rather than a
	// silently corrupted energy integral.
	if t.at < e.now {
		panic(fmt.Sprintf("sim: clock would go backward: event at %v, now %v", t.at, e.now))
	}
	e.now = t.at
	e.cEvents.Inc()
	e.dispatched++
	if e.dispatched&heapGaugeMask == 0 {
		e.gHeap.Set(int64(len(e.timers) + len(e.reps)))
	}
	if t.pooled {
		// Recycle before firing: the callback may Post again and reuse
		// this very timer. Its closure is extracted first and cleared by
		// recycle, so a recycled Timer cannot alias a stale callback.
		fn := t.fn
		t.recycle()
		fn()
		return true
	}
	t.firing = true
	t.fn()
	t.firing = false
	if t.period > 0 && !t.stopped && t.index < 0 {
		// Periodic: re-arm in place unless the callback stopped or
		// explicitly rescheduled the timer.
		t.at += t.period
		t.seq = e.seq
		e.seq++
		e.timers.push(t)
	}
	return true
}

// fireChain dispatches the head event of a chain whose representative
// sits at the rep heap's root. When the chain has a successor inside
// the near window the root is re-keyed in place and sifted down; the
// rep heap holds only the few chains due within the window, so the sift
// is short. A successor beyond the window parks the rep on the wheel.
// The head runs after the re-key so it may post to its own chain.
func (e *Engine) fireChain(rep *Timer) {
	c := rep.chain
	if rep.at < e.now {
		panic(fmt.Sprintf("sim: clock would go backward: event at %v, now %v", rep.at, e.now))
	}
	e.now = rep.at
	e.cEvents.Inc()
	e.dispatched++
	if e.dispatched&heapGaugeMask == 0 {
		e.gHeap.Set(int64(len(e.timers) + len(e.reps)))
	}
	mask := len(c.ring) - 1
	ev := c.ring[c.head]
	c.ring[c.head].fn = nil
	c.head = (c.head + 1) & mask
	c.n--
	if c.n > 0 {
		h := &c.ring[c.head]
		rep.at, rep.seq = h.at, h.seq
		if h.at < e.wBase+wheelWidth {
			e.reps[0].at = h.at
			e.reps.siftDown(0)
		} else {
			e.reps.pop()
			e.park(rep)
		}
		e.chainExtra--
	} else {
		e.reps.pop()
	}
	ev.fn()
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with time ≤ deadline, then advances the clock to
// the deadline. Events scheduled beyond the deadline remain pending.
func (e *Engine) RunUntil(deadline time.Duration) {
	prev := e.deadline
	e.deadline = deadline
	for e.step(deadline) {
	}
	e.deadline = prev
	if e.now < deadline {
		e.now = deadline
	}
}

// Deadline returns the bound of the innermost RunUntil currently
// executing, and whether there is one. Batching samplers use it to
// know how far they may synthesize ticks without overrunning the run.
func (e *Engine) Deadline() (time.Duration, bool) {
	return e.deadline, e.deadline >= 0
}

// AdvanceTo moves the virtual clock forward to t without dispatching
// anything. It panics if an event is pending at or before t: skipping
// it would reorder causality. This is the batching samplers' fast path —
// a sampler that knows no event fires inside its next window advances
// the clock and samples inline instead of round-tripping the event
// queue, and because the clock really advances, every lazily-integrated
// quantity (meter energy, RNG-free state) accumulates exactly as if the
// tick had been dispatched.
func (e *Engine) AdvanceTo(t time.Duration) {
	if t < e.now {
		panic(fmt.Sprintf("sim: advance to %v before now %v", t, e.now))
	}
	for t >= e.wBase+wheelWidth && (e.wheelCnt > 0 || e.overflowCnt > 0) {
		e.wheelAdvance()
	}
	if next, ok := e.peek(); ok && next.at <= t {
		panic(fmt.Sprintf("sim: advance to %v past pending event at %v", t, next.at))
	}
	e.now = t
}

// NextEventAt returns the virtual time of the earliest pending event,
// and whether one exists. Stopped timers are removed eagerly, so the
// answer never reflects cancelled work.
func (e *Engine) NextEventAt() (time.Duration, bool) {
	e.ensureNear()
	next, ok := e.peek()
	return next.at, ok
}

// Pending returns the number of events still queued (including events at
// the current instant, events buffered on Chains, and events held by
// parked chains). Stopped timers leave the queue immediately, so this is
// a live count, O(1).
func (e *Engine) Pending() int {
	return len(e.timers) + len(e.reps) + e.chainExtra + e.wheelCnt + e.overflowCnt
}

// Dispatched returns the number of events the engine has fired since
// construction. It is a deterministic measure of simulation work (wall
// clock is not), which the mesoscale experiments use to report how many
// events aggregation removed from a run.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// --- 4-ary min-heap over (at, seq) ---------------------------------------
//
// A 4-ary layout halves tree depth versus binary, and the four children
// of a node share a cache line of *Timer pointers; with the comparison
// inlined (no heap.Interface dispatch, no any-boxing) sift-down is the
// kernel's entire inner loop. Order is (at, seq): seq breaks co-timed
// ties FIFO, which is the determinism contract.

// heapEntry is one heap slot. The fire time is stored inline so the
// sift loops compare against contiguous memory; the Timer is consulted
// only to break exact-time ties on seq (and to maintain its index).
// Four 16-byte entries — one parent's whole child group — share a
// cache line.
type heapEntry struct {
	at time.Duration
	t  *Timer
}

// entryLess reports whether a orders strictly before b: earlier time
// first, FIFO on ties via the scheduling sequence number.
func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.t.seq < b.t.seq
}

// heap4 is a 4-ary min-heap of timers; each queued Timer tracks its
// slot in Timer.index.
type heap4 []heapEntry

func (h *heap4) push(t *Timer) {
	*h = append(*h, heapEntry{t.at, t})
	h.siftUp(len(*h) - 1)
}

func (h *heap4) pop() *Timer {
	pq := *h
	t := pq[0].t
	n := len(pq) - 1
	last := pq[n]
	pq[n] = heapEntry{}
	*h = pq[:n]
	t.index = -1
	if n > 0 {
		pq[0] = last
		last.t.index = 0
		h.siftDown(0)
	}
	return t
}

// remove deletes the timer at index i.
func (h *heap4) remove(i int) {
	pq := *h
	t := pq[i].t
	n := len(pq) - 1
	last := pq[n]
	pq[n] = heapEntry{}
	*h = pq[:n]
	t.index = -1
	if i < n {
		pq[i] = last
		last.t.index = i
		h.fix(i)
	}
}

// fix restores heap order after the timer at index i changed key,
// refreshing the inline time copy first.
func (h *heap4) fix(i int) {
	(*h)[i].at = (*h)[i].t.at
	h.siftDown(i)
	h.siftUp(i)
}

// siftUp stays too large to inline, so push (append plus this call)
// inlines into its callers.
func (h *heap4) siftUp(i int) {
	pq := *h
	t := pq[i]
	for i > 0 {
		p := (i - 1) >> 2
		pt := pq[p]
		if !entryLess(t, pt) {
			break
		}
		pq[i] = pt
		pt.t.index = i
		i = p
	}
	pq[i] = t
	t.t.index = i
}

func (h *heap4) siftDown(i int) {
	pq := *h
	n := len(pq)
	t := pq[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Select the smallest of up to four children.
		m, mt := c, pq[c]
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if jt := pq[j]; entryLess(jt, mt) {
				m, mt = j, jt
			}
		}
		if !entryLess(mt, t) {
			break
		}
		pq[i] = mt
		mt.t.index = i
		i = m
	}
	pq[i] = t
	t.t.index = i
}
