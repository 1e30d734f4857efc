package sim

import (
	"testing"
	"time"
)

// TestWheelSpanBoundaryParksOnWheel pins the timing-wheel boundary
// semantics: a chain representative whose head event lands exactly one
// full revolution out (at == wBase+wheelSpan) files into its wheel
// bucket, not the overflow list. Before the fix, park routed the exact
// boundary to overflow (`>= wheelSpan`) while the invariant and the
// re-file path treated the wheel as covering it — the rep took a
// needless extra revolution through the overflow scan, and the two
// paths disagreed about which structure owned the boundary.
func TestWheelSpanBoundaryParksOnWheel(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	near, far := e.NewChain(), e.NewChain()

	// Occupy the wheel first so park's empty-wheel window jump cannot
	// move wBase: the boundary value below stays exact.
	near.Post(wheelWidth, func() {})
	if e.wheelCnt != 1 || e.overflowCnt != 0 {
		t.Fatalf("setup: wheelCnt=%d overflowCnt=%d, want 1, 0", e.wheelCnt, e.overflowCnt)
	}

	// Head exactly at wBase+wheelSpan: must park on the wheel.
	var fired []time.Duration
	far.Post(e.wBase+wheelSpan, func() { fired = append(fired, e.Now()) })
	if e.overflowCnt != 0 {
		t.Fatalf("rep at exactly wBase+wheelSpan went to overflow (overflowCnt=%d, wheelCnt=%d)",
			e.overflowCnt, e.wheelCnt)
	}
	if e.wheelCnt != 2 {
		t.Fatalf("wheelCnt = %d, want 2", e.wheelCnt)
	}

	// Strictly beyond the span still overflows.
	deep := e.NewChain()
	deep.Post(e.wBase+wheelSpan+1, func() { fired = append(fired, e.Now()) })
	if e.overflowCnt != 1 {
		t.Fatalf("rep beyond wBase+wheelSpan should overflow (overflowCnt=%d)", e.overflowCnt)
	}

	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	want := []time.Duration{wheelSpan, wheelSpan + 1}
	e.Run()
	if len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

// TestWheelSpanBoundaryFireOrder drives co-timed and boundary-adjacent
// events through heap, wheel, and overflow and checks the dispatch
// order is exactly (time, then scheduling order) — the exact-boundary
// rep must not be reordered by which structure carried it.
func TestWheelSpanBoundaryFireOrder(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var got []int
	note := func(id int) func() { return func() { got = append(got, id) } }

	a, b, c := e.NewChain(), e.NewChain(), e.NewChain()
	a.Post(wheelWidth, note(0))  // wheel, defeats the window jump
	b.Post(wheelSpan-1, note(1)) // wheel, last bucket
	c.Post(wheelSpan, note(2))   // exact boundary: wheel
	e.Post(wheelSpan, note(3))   // plain timer, co-timed with 2: FIFO after it
	d := e.NewChain()
	d.Post(wheelSpan+wheelWidth, note(4)) // beyond the span: overflow
	e.Post(wheelWidth-1, note(5))         // near heap

	e.Run()
	want := []int{5, 0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

// TestChainParkUnpark covers the kernel hook the mesoscale tier uses:
// parking removes the representative from whichever structure holds it
// (rep heap, wheel bucket, overflow list) without losing buffered
// events, and unparking restores the exact fire order.
func TestChainParkUnpark(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		at   time.Duration // where the parked chain's head lands
	}{
		{"heap", 10},
		{"wheel", 2 * wheelWidth},
		{"overflow", wheelSpan + 2*wheelWidth},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			e := NewEngine()
			// A second chain keeps the wheel occupied so the window jump
			// cannot reclassify tc.at, and provides interleaved events.
			other := e.NewChain()
			other.Post(wheelWidth, func() {})

			var got []time.Duration
			c := e.NewChain()
			c.Post(tc.at, func() { got = append(got, e.Now()) })
			c.Post(tc.at+5, func() { got = append(got, e.Now()) })

			pendingBefore := e.Pending()
			c.Park()
			if !c.Parked() {
				t.Fatal("Parked() = false after Park")
			}
			if e.Pending() != pendingBefore {
				t.Fatalf("Pending changed across Park: %d -> %d", pendingBefore, e.Pending())
			}
			c.Park() // idempotent

			// Posts while parked buffer without arming.
			c.Post(tc.at+9, func() { got = append(got, e.Now()) })
			if e.Pending() != pendingBefore+1 {
				t.Fatalf("Pending = %d after parked post, want %d", e.Pending(), pendingBefore+1)
			}

			// With the chain parked, running up to (but not past) its head
			// fires only the interleaved plain event.
			interleaved := false
			e.Post(5, func() { interleaved = true })
			e.RunUntil(5)
			if !interleaved || len(got) != 0 {
				t.Fatalf("interleaved=%v, parked chain fired %d events", interleaved, len(got))
			}

			c.Unpark()
			c.Unpark() // idempotent
			e.Run()
			want := []time.Duration{tc.at, tc.at + 5, tc.at + 9}
			if len(got) != len(want) {
				t.Fatalf("fired %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("fired %v, want %v", got, want)
				}
			}
		})
	}
}

// TestChainParkEmpty: parking an empty chain suspends future arming
// until Unpark; events posted meanwhile are preserved.
func TestChainParkEmpty(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	c := e.NewChain()
	c.Park()
	var got []time.Duration
	c.Post(3, func() { got = append(got, e.Now()) })
	c.Post(7, func() { got = append(got, e.Now()) })
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run() // nothing armed: no-op
	if len(got) != 0 {
		t.Fatalf("parked chain fired %v", got)
	}
	c.Unpark()
	e.Run()
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("fired %v, want [3ns 7ns]", got)
	}
}

// TestChainUnparkPastHeadPanics: sleeping through a parked chain's head
// event and then unparking would run causality backward; the kernel
// refuses loudly.
func TestChainUnparkPastHeadPanics(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	c := e.NewChain()
	c.Post(5, func() {})
	c.Park()
	e.RunUntil(100)
	defer func() {
		if recover() == nil {
			t.Fatal("Unpark past the head event did not panic")
		}
	}()
	c.Unpark()
}

// --- the timer heap and the rep heap --------------------------------------

// TestCrossHeapCoTimedOrder: events co-timed at one instant fire in
// scheduling order whichever heap carries them. Plain Posts, an owned
// timer and a Periodic re-arm (whose seq is taken when it first fires)
// ride the timer heap; chain heads ride the rep heap, one of them
// parked and unparked in between.
func TestCrossHeapCoTimedOrder(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	const at = 400 // inside the first near window: every rep stays in the rep heap
	var got []int
	note := func(id int) func() { return func() { got = append(got, id) } }

	var tick *Timer
	tick = e.Periodic(at/2, func() {
		if e.Now() == at {
			got = append(got, 4)
			tick.Stop()
		}
	})
	a, b := e.NewChain(), e.NewChain()
	e.Post(at, note(0))
	a.Post(at, note(1))
	e.Schedule(at, note(2))
	b.Post(at, note(3))
	b.Park()
	e.RunUntil(at / 2) // the Periodic fires and re-arms at `at` behind 0–3
	e.Post(at, note(5))
	b.Unpark() // keeps its head's original seq
	c := e.NewChain()
	c.Post(at, note(6))
	if len(e.timers) != 4 || len(e.reps) != 3 {
		t.Fatalf("setup: %d timers, %d reps queued, want 4 and 3", len(e.timers), len(e.reps))
	}

	e.Run()
	want := []int{0, 1, 2, 3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestPlainTimerOpsLeaveRepHeap: Schedule, Post, Periodic, Stop and
// Reschedule of plain timers work on the timer heap alone; the rep
// heap's entries and their indexes are untouched.
func TestPlainTimerOpsLeaveRepHeap(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	for i := 1; i <= 5; i++ {
		e.NewChain().Post(time.Duration(60*i), func() {})
	}
	before := append(heap4(nil), e.reps...)

	var owned []*Timer
	for i := 0; i < 8; i++ {
		owned = append(owned, e.Schedule(time.Duration(50*i), func() {}))
		e.Post(time.Duration(70*i), func() {})
	}
	owned = append(owned, e.Periodic(90, func() {}))
	for i, tm := range owned {
		if i%2 == 0 {
			tm.Stop()
		}
		tm.Reschedule(time.Duration(1000 - 40*i))
	}
	for i, tm := range owned {
		if i%3 == 0 {
			tm.Stop()
		}
	}

	if len(e.reps) != len(before) {
		t.Fatalf("rep heap holds %d entries, want %d", len(e.reps), len(before))
	}
	for i, en := range e.reps {
		if en != before[i] || en.t.index != i {
			t.Fatalf("rep heap slot %d changed: %+v (index %d), was %+v", i, en, en.t.index, before[i])
		}
	}
	for i, en := range e.timers {
		if en.t.chain != nil || en.t.index != i {
			t.Fatalf("timer heap slot %d holds a chain rep or a stale index %d", i, en.t.index)
		}
	}
}

// TestChainParkLeavesRepHeap: parking a chain whose representative sits
// in the rep heap takes it out, re-indexes the rest and leaves the
// timer heap alone.
func TestChainParkLeavesRepHeap(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	c, d := e.NewChain(), e.NewChain()
	c.Post(100, func() {})
	d.Post(200, func() {})
	e.Schedule(150, func() {})
	if len(e.reps) != 2 || c.rep.index < 0 {
		t.Fatalf("setup: %d reps, c.rep.index %d", len(e.reps), c.rep.index)
	}
	c.Park()
	if len(e.reps) != 1 || e.reps[0].t != d.rep || d.rep.index != 0 {
		t.Fatalf("after Park: rep heap %v, d.rep.index %d", e.reps, d.rep.index)
	}
	if c.rep.index != -1 {
		t.Fatalf("parked rep still indexed at %d", c.rep.index)
	}
	if len(e.timers) != 1 {
		t.Fatalf("timer heap holds %d entries, want 1", len(e.timers))
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
}

// TestAdvanceToPanicsOnEitherHeap: AdvanceTo refuses to skip an event at
// or before its target whichever heap holds it, even when the other
// heap's root lies beyond the target.
func TestAdvanceToPanicsOnEitherHeap(t *testing.T) {
	t.Parallel()
	const at = 100
	setups := map[string]func(e *Engine){
		"timer heap": func(e *Engine) {
			e.Post(at, func() {})
			e.NewChain().Post(10*at, func() {})
		},
		"rep heap": func(e *Engine) {
			e.NewChain().Post(at, func() {})
			e.Post(10*at, func() {})
		},
	}
	for name, setup := range setups {
		for _, target := range []time.Duration{at - 1, at, at + 50} {
			e := NewEngine()
			setup(e)
			did := panics(func() { e.AdvanceTo(target) })
			if want := target >= at; did != want {
				t.Errorf("%s: AdvanceTo(%v) with an event at %v: panicked %v, want %v", name, target, time.Duration(at), did, want)
			}
		}
	}
}

// TestPendingExactAcrossHeaps: Pending counts every queued event once,
// wherever it lives — timer heap, rep heap, wheel, overflow, ring tail,
// or a parked chain — through arming, stopping, parking and firing.
func TestPendingExactAcrossHeaps(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	want := 0
	check := func(step string) {
		t.Helper()
		if got := e.Pending(); got != want {
			t.Fatalf("%s: Pending = %d, want %d", step, got, want)
		}
	}
	e.Post(10, func() {})
	tm := e.Schedule(20, func() {})
	tick := e.Periodic(30, func() {})
	want += 3
	check("timer heap")
	near, far, deep := e.NewChain(), e.NewChain(), e.NewChain()
	near.Post(40, func() {})
	near.Post(50, func() {})
	far.Post(4*wheelWidth, func() {})
	deep.Post(2*wheelSpan, func() {})
	want += 4
	check("rep heap, ring tail, wheel, overflow")
	tm.Stop()
	want--
	check("stop")
	near.Park()
	far.Park()
	check("park")
	near.Post(60, func() {})
	want++
	check("post to a parked chain")
	e.RunUntil(35) // the Post, and the Periodic's first firing (it re-arms)
	want--
	check("run")
	near.Unpark()
	far.Unpark()
	check("unpark")
	tick.Stop()
	want--
	check("stop the Periodic")
	for e.Step() {
		want--
		check("step")
	}
	if want != 0 {
		t.Fatalf("queue drained with %d events unaccounted", want)
	}
}
