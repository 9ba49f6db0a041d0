package simtime

import (
	"container/heap"
	"fmt"
	"strings"
)

// refClock is the reference model the engine is checked against: a
// binary heap over (when, insertion order) with eager cancel — the
// semantics of the serial heap the engine replaced. It shares no code
// with the engine.
type refClock struct {
	now Time
	seq uint64
	pq  refHeap
}

type refEvent struct {
	when   Time
	seq    uint64
	fn     func()
	index  int // heap index; -1 once popped or removed
	cancel bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

func (c *refClock) scheduleAt(t Time, fn func()) *refEvent {
	if t < c.now {
		t = c.now
	}
	e := &refEvent{when: t, seq: c.seq, fn: fn}
	c.seq++
	heap.Push(&c.pq, e)
	return e
}

func (c *refClock) cancel(e *refEvent) {
	if e.cancel {
		return
	}
	e.cancel = true
	if e.index >= 0 {
		heap.Remove(&c.pq, e.index)
	}
}

func (c *refClock) run() {
	for len(c.pq) > 0 {
		e := heap.Pop(&c.pq).(*refEvent)
		c.now = e.when
		e.fn()
	}
}

// scheduler is the surface a test program drives, so one program runs
// unchanged on the engine and on the reference model.
type scheduler struct {
	now     func() Time
	at      func(t Time, fn func()) (cancel func())
	run     func()
	pending func() int
}

func refScheduler(c *refClock) scheduler {
	return scheduler{
		now: func() Time { return c.now },
		at: func(t Time, fn func()) func() {
			e := c.scheduleAt(t, fn)
			return func() { c.cancel(e) }
		},
		run:     c.run,
		pending: func() int { return len(c.pq) },
	}
}

func engineScheduler(c *Clock) scheduler {
	return scheduler{
		now:     c.Now,
		at:      func(t Time, fn func()) func() { return c.ScheduleAt(t, fn).Cancel },
		run:     c.Run,
		pending: c.Pending,
	}
}

// Wheel-stressing start times, picked by kind&3.
func programStart(d uint32, kind uint8) Time {
	switch kind & 3 {
	case 0: // arbitrary nanosecond, not tick-aligned
		return Time(d % 5_000_000)
	case 1: // coarse: many same-time ties
		return Time(d%16) * Time(Millisecond)
	case 2: // past the wheel's ~73-minute span: overflow heap
		return Time(74*60*Second) + Time(d)*Time(Microsecond)
	default: // anywhere across the four levels (~68 s)
		return Time(d%(1<<26)) << tickShift
	}
}

// runProgram schedules one event per delay and runs the scheduler. Each
// event logs its id, time and the pending count. By its kind bits it
// also schedules a child just under one level-l rotation past now
// (kind&4; the cursor is then rarely slot-aligned) and cancels its
// successor, fired or not (kind&8). cancelMask cancels events before the
// run. The log is the program's observable behavior.
func runProgram(s scheduler, delays []uint32, kinds []uint8, cancelMask []bool) string {
	var log []string
	n := len(delays)
	cancels := make([]func(), n)
	kindOf := func(i int) uint8 {
		if i < len(kinds) {
			return kinds[i]
		}
		return 0
	}
	for i, d := range delays {
		i, d, k := i, d, kindOf(i)
		cancels[i] = s.at(programStart(d, k), func() {
			log = append(log, fmt.Sprintf("%d@%d/%d", i, s.now(), s.pending()))
			if k&4 != 0 {
				l := uint(1 + (k>>4)%3)
				ahead := Time(1)<<((l+1)*wheelBits) - Time(d)%(Time(1)<<(l*wheelBits)) - 1
				s.at(s.now()+ahead<<tickShift+Time(d%1024), func() {
					log = append(log, fmt.Sprintf("c%d@%d/%d", i, s.now(), s.pending()))
				})
			}
			if k&8 != 0 {
				cancels[(i+1)%n]()
			}
		})
	}
	for i, c := range cancels {
		if i < len(cancelMask) && cancelMask[i] {
			c()
		}
	}
	s.run()
	log = append(log, fmt.Sprintf("end@%d/%d", s.now(), s.pending()))
	return strings.Join(log, " ")
}
