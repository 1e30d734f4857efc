package sim

import (
	"container/heap"
	"testing"
	"time"
)

// The engine's two inlined 4-ary heaps (plain timers, and chain
// representatives fed by the ring buffers and the timing wheel) must
// fire events in exactly the order one textbook priority queue over
// (time, seq) would. FuzzHeapDifferential drives both from the same
// random script of schedule / post / periodic / chain-post / stop /
// reschedule / step / run-until / advance / park-unpark operations and
// requires identical fire sequences, including FIFO order among
// co-timed events carried by different heaps, plus agreement on
// NextEventAt, Pending and AdvanceTo's legality at every step. Far
// posts step in eighths of the wheel span so the fuzzer reaches the
// exact wheel/overflow boundary (at == wBase+wheelSpan), which must park
// on the wheel, not the overflow list.

type refEv struct {
	at     time.Duration
	seq    uint64
	id     int
	period time.Duration // >0: a Periodic firing, re-armed when popped
}

type refHeap []refEv

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEv)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	ev := old[n]
	*h = old[:n]
	return ev
}

func (h *refHeap) removeID(id int) bool {
	for i, ev := range *h {
		if ev.id == id {
			heap.Remove(h, i)
			return true
		}
	}
	return false
}

// rearmID is the id a Periodic firing's re-arm gets: ids below it are
// drawn from the script, so every re-arm id is unique and both sides
// derive it the same way.
const rearmID = 1 << 20

func FuzzHeapDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0, 5, 0, 5, 0, 5, 0})
	f.Add([]byte{2, 3, 2, 3, 2, 3, 5, 0, 3, 0, 5, 0, 4, 1, 7})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 5, 0, 6, 200, 6, 10, 5, 0})
	f.Add([]byte{0, 9, 4, 0, 20, 3, 0, 4, 0, 9, 5, 0, 5, 0, 5, 0})
	// Exact wheel-span boundary: a far post at precisely wBase+wheelSpan
	// (arg 7 = 8 eighths of the span, with the wheel already occupied so
	// the window jump cannot move wBase) must file on the wheel.
	f.Add([]byte{6, 0, 6, 7, 5, 0, 5, 0, 5, 0})
	f.Add([]byte{6, 7, 7, 0, 7, 0, 5, 0, 6, 7, 5, 0, 5, 0})
	// Park/unpark interleaved with near-heap traffic.
	f.Add([]byte{2, 0, 7, 0, 1, 10, 5, 0, 7, 0, 5, 0, 5, 0})
	// Co-timed at 2048 ns across both heaps with interleaved sequence
	// numbers: a plain Post, a chain-0 head, the re-arm of a 1024 ns
	// Periodic (its seq is taken only when it first fires), an owned
	// timer, a chain-1 head (parked, peeked past, unparked; AdvanceTo
	// lines its time up) and a second Post. RunUntil must fire them in
	// exactly that order, alternating between the heaps.
	f.Add([]byte{8, 16, 1, 32, 2, 32, 5, 0, 0, 16, 10, 15, 2, 1, 7, 1, 11, 0, 7, 1, 1, 1, 9, 8, 11, 0, 5, 0, 5, 0})
	// AdvanceTo: an illegal jump past a chain head while the timer heap's
	// root lies beyond the target, then one legal jump short of the
	// first event and one illegal jump past events on both heaps (both
	// illegal jumps must panic), then RunUntil.
	f.Add([]byte{2, 4, 0, 255, 10, 8, 5, 0, 8, 16, 2, 32, 1, 32, 0, 32, 10, 15, 10, 40, 11, 0, 9, 40, 3, 0})
	// Fleet shape: 48 idle owned timers ~16 µs out, pushed back as the
	// chains run (a flush timer re-armed per write), with chain traffic
	// on all four chains overtaking them.
	fleet := []byte{}
	for i := 0; i < 48; i++ {
		fleet = append(fleet, 0, 255)
	}
	for i := 0; i < 32; i++ {
		fleet = append(fleet, 2, byte(i%4+4), 4, byte(208+i), 5, 0, 2, byte(i%4+8), 9, 2, 11, 0)
	}
	f.Add(fleet)

	f.Fuzz(func(t *testing.T, script []byte) {
		e := NewEngine()
		const nChains = 4
		var chains [nChains]*Chain
		for k := range chains {
			chains[k] = e.NewChain()
		}

		var ref refHeap
		var refSeq uint64
		nextID := 0

		// Reference model of the chains, for park/unpark: the FIFO of
		// unfired chain-routed events per chain (mirroring each ring),
		// whether the chain is parked, and the chain's last posted time
		// (mirroring PostLoose's routing decision). While a chain is
		// parked its events live only in chainQ, not in ref.
		var chainQ [nChains][]refEv
		var parked [nChains]bool
		var chainLast [nChains]time.Duration

		var engFired, refFired []int

		// Owned timers created so far; ownedEv[k] is the id of timer k's
		// currently pending firing, -1 when none. The engine callback
		// reads the id at fire time, so a Reschedule changes which id the
		// next firing reports — on both sides. A Periodic timer's firing
		// hands its re-arm the id rearmID above its own.
		var owned []*Timer
		var ownedEv []int
		var periods []time.Duration

		push := func(at time.Duration, id int, period time.Duration) {
			heap.Push(&ref, refEv{at, refSeq, id, period})
			refSeq++
		}
		refPop := func() {
			ev := heap.Pop(&ref).(refEv)
			refFired = append(refFired, ev.id)
			if ev.period > 0 {
				push(ev.at+ev.period, ev.id+rearmID, ev.period)
			}
		}
		addOwned := func(arm func(fn func()) *Timer, at time.Duration, period time.Duration) {
			id := nextID
			nextID++
			k := len(owned)
			owned = append(owned, nil)
			ownedEv = append(ownedEv, id)
			periods = append(periods, period)
			owned[k] = arm(func() {
				engFired = append(engFired, ownedEv[k])
				if periods[k] > 0 {
					ownedEv[k] += rearmID
				} else {
					ownedEv[k] = -1
				}
			})
			push(at, id, period)
		}

		// chainPost mirrors Chain.PostLoose: events that preserve the
		// chain's time order ride the ring (and are withheld from ref
		// while the chain is parked); others fall back to a plain post.
		chainPost := func(k int, at time.Duration) {
			id := nextID
			nextID++
			if at >= chainLast[k] {
				chainLast[k] = at
				ev := refEv{at, refSeq, id, 0}
				refSeq++
				chainQ[k] = append(chainQ[k], ev)
				if !parked[k] {
					heap.Push(&ref, ev)
				}
				chains[k].PostLoose(at, func() {
					engFired = append(engFired, id)
					chainQ[k] = chainQ[k][1:]
				})
			} else {
				chains[k].PostLoose(at, func() { engFired = append(engFired, id) })
				push(at, id, 0)
			}
		}
		unpark := func(k int) {
			parked[k] = false
			chains[k].Unpark()
			for _, ev := range chainQ[k] {
				heap.Push(&ref, ev)
			}
		}

		for i := 0; i+1 < len(script) && nextID < 512; i += 2 {
			op, arg := script[i]%12, script[i+1]
			delta := time.Duration(arg) * 64 * time.Nanosecond
			at := e.Now() + delta
			switch op {
			case 0: // schedule an owned timer
				addOwned(func(fn func()) *Timer { return e.Schedule(at, fn) }, at, 0)
			case 1: // fire-and-forget post
				id := nextID
				nextID++
				e.Post(at, func() { engFired = append(engFired, id) })
				push(at, id, 0)
			case 2: // chain post (loose: tolerates non-monotone times)
				chainPost(int(arg)%nChains, at)
			case 3: // stop an owned timer
				if len(owned) == 0 {
					continue
				}
				k := int(arg) % len(owned)
				got := owned[k].Stop()
				want := ownedEv[k] >= 0
				if got != want {
					t.Fatalf("op %d: Stop(timer %d) = %v, reference pending = %v", i, k, got, want)
				}
				if want {
					ref.removeID(ownedEv[k])
					ownedEv[k] = -1
				}
			case 4: // reschedule an owned timer (pending, stopped, or fired)
				if len(owned) == 0 {
					continue
				}
				k := int(arg) % len(owned)
				id := nextID
				nextID++
				if ownedEv[k] >= 0 {
					ref.removeID(ownedEv[k])
				}
				ownedEv[k] = id
				owned[k].Reschedule(at)
				push(at, id, periods[k])
			case 5: // dispatch one event
				engOK := e.Step()
				if refOK := ref.Len() > 0; engOK != refOK {
					t.Fatalf("op %d: Step() = %v but reference has %d pending", i, engOK, ref.Len())
				}
				if engOK {
					refPop()
				}
			case 6: // far post in span-eighths: wheel parking, exact span boundary, overflow
				farAt := e.Now() + time.Duration(int(arg)%32+1)*(wheelSpan/8)
				chainPost(int(arg)%nChains, farAt)
			case 7: // park / unpark a chain
				k := int(arg) % nChains
				if !parked[k] {
					parked[k] = true
					chains[k].Park()
					for _, ev := range chainQ[k] {
						ref.removeID(ev.id)
					}
				} else if len(chainQ[k]) == 0 || chainQ[k][0].at >= e.Now() {
					unpark(k)
				} // else: time passed the parked head; unparking would panic, skip
			case 8: // periodic owned timer, period at least 1024 ns (at most four)
				if countPeriodic(periods) >= 4 {
					continue
				}
				every := max(delta, 1024*time.Nanosecond)
				addOwned(func(fn func()) *Timer { return e.Periodic(every, fn) }, e.Now()+every, every)
			case 9: // run until a deadline up to ~65 µs out
				deadline := e.Now() + 4*delta
				e.RunUntil(deadline)
				for ref.Len() > 0 && ref[0].at <= deadline {
					refPop()
				}
				if e.Now() != deadline {
					t.Fatalf("op %d: RunUntil(%v) left the clock at %v", i, deadline, e.Now())
				}
			case 10: // advance the clock without dispatching
				if ref.Len() > 0 && ref[0].at <= at {
					if !panics(func() { e.AdvanceTo(at) }) {
						t.Fatalf("op %d: AdvanceTo(%v) past pending event at %v did not panic", i, at, ref[0].at)
					}
				} else {
					e.AdvanceTo(at)
				}
			case 11: // peek at the earliest event
				got, ok := e.NextEventAt()
				if want := ref.Len() > 0; ok != want || ok && got != ref[0].at {
					t.Fatalf("op %d: NextEventAt() = %v, %v; reference has %d pending", i, got, ok, ref.Len())
				}
			}
			withheld := 0
			for k := range chains {
				if parked[k] {
					withheld += len(chainQ[k])
				}
			}
			if e.Pending() != ref.Len()+withheld {
				t.Fatalf("op %d: Pending() = %d, reference = %d + %d withheld", i, e.Pending(), ref.Len(), withheld)
			}
		}

		// End every Periodic series so the queue drains, and unpark
		// whatever can still legally fire; chains whose parked head is
		// already in the past stay parked on both sides.
		for k, p := range periods {
			if p > 0 && ownedEv[k] >= 0 {
				owned[k].Stop()
				ref.removeID(ownedEv[k])
				ownedEv[k] = -1
			}
		}
		for k := range chains {
			if parked[k] && (len(chainQ[k]) == 0 || chainQ[k][0].at >= e.Now()) {
				unpark(k)
			}
		}
		e.Run()
		for ref.Len() > 0 {
			refPop()
		}

		if len(engFired) != len(refFired) {
			t.Fatalf("engine fired %d events, reference %d", len(engFired), len(refFired))
		}
		for i := range engFired {
			if engFired[i] != refFired[i] {
				t.Fatalf("fire order diverges at %d: engine %v, reference %v",
					i, engFired[i:min(i+8, len(engFired))], refFired[i:min(i+8, len(refFired))])
			}
		}
	})
}

func countPeriodic(periods []time.Duration) int {
	n := 0
	for _, p := range periods {
		if p > 0 {
			n++
		}
	}
	return n
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}
