package des

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(5, func() { order = append(order, 2) })
	s.At(1, func() { order = append(order, 1) })
	s.At(9, func() { order = append(order, 3) })
	s.Run()
	want := []int{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("executed %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %d, want %d", i, order[i], want[i])
		}
	}
	if s.Now() != 9 {
		t.Errorf("clock = %v, want 9s", s.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(3, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events executed out of scheduling order: %v", order)
		}
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	s := New()
	var at Time
	s.After(2.5, func() {
		s.After(1.5, func() { at = s.Now() })
	})
	s.Run()
	if at != 4 {
		t.Errorf("nested After fired at %v, want 4s", at)
	}
}

func TestAfterNegativeDelayClamped(t *testing.T) {
	s := New()
	fired := false
	s.After(1, func() {
		s.After(-5, func() { fired = true })
	})
	s.Run()
	if !fired {
		t.Fatal("event with negative delay never fired")
	}
	if s.Now() != 1 {
		t.Errorf("clock = %v, want 1s", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

// A series whose first firing is not after now would tie with, or precede,
// the lane's events; AtSeriesOp refuses it, as AtOp refuses the past.
func TestSeriesStartingByNowPanics(t *testing.T) {
	s := New()
	h := &countHandler{}
	s.At(10, func() {
		for _, dt := range []float64{10, 5, 0, -1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("series with dt %v at 10s did not panic", dt)
					}
				}()
				s.AtSeriesOp(3, dt, h, 0, 0)
			}()
		}
		s.AtSeriesOp(3, 11, h, 0, 0) // 11, 22, 33
	})
	s.Run()
	if h.n[0] != 1+2+3 || s.Now() != 33 {
		t.Errorf("series delivered %d by %v, want 6 by 33s", h.n[0], s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(3, func() { fired = true })
	if !s.Live(e) {
		t.Error("Live() = false before Cancel")
	}
	s.Cancel(e)
	s.Run()
	if fired {
		t.Error("canceled event fired")
	}
	if s.Live(e) {
		t.Error("Live() = true after Cancel")
	}
	// Double cancel and canceling a zero handle are no-ops.
	s.Cancel(e)
	s.Cancel(EventID{})
}

// Cancel only marks its event; a model that schedules and cancels without
// ever stepping must still not grow the queue: tombstones, in the heap or
// in the lane, are dropped once they outnumber the live events.
func TestCancelKeepsQueueBounded(t *testing.T) {
	s := New()
	fired := 0
	s.At(1e6, func() { fired++ })
	for i := 0; i < 10000; i++ {
		s.Cancel(s.After(float64(i%3), func() { t.Error("canceled event fired") }))
	}
	if len(s.events) > 4 || len(s.heap) > 3 {
		t.Errorf("10000 schedule→cancel pairs left %d slots and %d heap entries for one live event",
			len(s.events), len(s.heap))
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	s.Run()
	if fired != 1 || s.Now() != 1e6 {
		t.Errorf("fired %d, clock %v; want the live event at 1e6", fired, s.Now())
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	s := New()
	fired := false
	e := s.At(5, func() { fired = true })
	s.At(1, func() { s.Cancel(e) })
	s.Run()
	if fired {
		t.Error("event canceled at t=1 still fired at t=5")
	}
}

// Pending counts live events only, whether the canceled entries have been
// discarded yet or not.
func TestPendingExcludesCanceled(t *testing.T) {
	s := New()
	var events []EventID
	for i := 1; i <= 6; i++ {
		events = append(events, s.At(Time(i), func() {}))
	}
	s.Cancel(events[0])
	s.Cancel(events[3])
	if got := s.Pending(); got != 4 {
		t.Fatalf("Pending = %d, want 4", got)
	}
	steps := 0
	for s.Step() {
		steps++
	}
	if steps != 4 {
		t.Errorf("Step executed %d events, want 4", steps)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending after drain = %d, want 0", s.Pending())
	}
	if s.Processed() != 4 {
		t.Errorf("Processed = %d, want 4", s.Processed())
	}
}

// Canceling an event tied with the current event (same time, later seq)
// must suppress it even though it is already "due".
func TestCancelSameTimeSibling(t *testing.T) {
	s := New()
	var e2 EventID
	s.At(3, func() { s.Cancel(e2) })
	e2 = s.At(3, func() { t.Error("sibling canceled at the same timestamp fired") })
	s.Run()
	if s.Now() != 3 {
		t.Errorf("clock = %v, want 3s", s.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Error("Step on empty queue returned true")
	}
	s.At(1, func() {})
	if !s.Step() {
		t.Error("Step with one event returned false")
	}
	if s.Step() {
		t.Error("Step after draining returned true")
	}
	if s.Processed() != 1 {
		t.Errorf("Processed = %d, want 1", s.Processed())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			s.At(Time(d), func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEventTimeAccessor(t *testing.T) {
	s := New()
	e := s.At(4.25, func() {})
	at, ok := s.EventTime(e)
	if !ok || at != 4.25 {
		t.Errorf("EventTime() = %v, %v, want 4.25s, true", at, ok)
	}
	if got := at.String(); got != "4.250s" {
		t.Errorf("String() = %q, want \"4.250s\"", got)
	}
	s.Run()
	if _, ok := s.EventTime(e); ok {
		t.Error("EventTime ok = true after the event fired")
	}
}

// TestNegativeZeroTimeOrdersAsZero: an event at -0 scheduled with the clock
// at 0 is an event at 0, firing in scheduling order among the events at +0
// and before later ones, and leaves the clock at +0. The kernel compares
// keys by their bits, in which -0 would sort after +Inf.
func TestNegativeZeroTimeOrdersAsZero(t *testing.T) {
	s := New()
	negZero := Time(math.Copysign(0, -1))
	var order []int
	at := func(when Time, id int) EventID {
		return s.At(when, func() {
			order = append(order, id)
			if math.Signbit(float64(s.Now())) {
				t.Errorf("event %d fired with the clock at -0", id)
			}
		})
	}
	at(1, 4)
	at(0, 1)
	id := at(negZero, 2)
	at(0, 3)
	at(Time(math.Inf(1)), 5)
	if when, ok := s.EventTime(id); !ok || when != 0 || math.Signbit(float64(when)) {
		t.Errorf("EventTime of the -0 event = %v, %v; want +0", when, ok)
	}
	s.Run()
	if want := []int{1, 2, 3, 4, 5}; !slices.Equal(order, want) {
		t.Errorf("fired %v, want %v", order, want)
	}
}

// TestKeyOrderIsTimeThenSequence: the branch-free key compare agrees with
// comparing (time, sequence) as numbers, over non-negative times from the
// smallest subnormal to +Inf and sequence numbers at both ends of their
// range.
func TestKeyOrderIsTimeThenSequence(t *testing.T) {
	times := []Time{0, Time(math.SmallestNonzeroFloat64), 1e-300, 0.5, 1, 1 + 1e-15, 2, 1e9, Time(math.MaxFloat64), Time(math.Inf(1))}
	seqs := []uint32{0, 1, 2, 1 << 31, math.MaxUint32 - 1, math.MaxUint32}
	for _, at1 := range times {
		for _, s1 := range seqs {
			for _, at2 := range times {
				for _, s2 := range seqs {
					a, b := heapEntry{at: at1, seq: s1}, heapEntry{at: at2, seq: s2}
					want := at1 < at2 || (at1 == at2 && s1 < s2)
					if got := a.before(b); got != want {
						t.Fatalf("(%v, %d) before (%v, %d) = %v, want %v", at1, s1, at2, s2, got, want)
					}
				}
			}
		}
	}
}
