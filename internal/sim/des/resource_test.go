package des

import "testing"

func TestResourceImmediateGrant(t *testing.T) {
	s := New()
	r := NewResource(s, 2)
	granted := 0
	r.Acquire(1, func() { granted++ })
	r.Acquire(1, func() { granted++ })
	s.Run()
	if granted != 2 {
		t.Fatalf("granted = %d, want 2", granted)
	}
	if r.InUse() != 2 || r.Available() != 0 {
		t.Errorf("InUse=%d Available=%d, want 2/0", r.InUse(), r.Available())
	}
}

func TestResourceQueueing(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	var times []Time
	// Three 10-second holders on a single slot: starts at 0, 10, 20.
	for i := 0; i < 3; i++ {
		r.Acquire(1, func() {
			times = append(times, s.Now())
			s.After(10, func() { r.Release(1) })
		})
	}
	s.Run()
	want := []Time{0, 10, 20}
	if len(times) != 3 {
		t.Fatalf("granted %d, want 3", len(times))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("grant %d at %v, want %v", i, times[i], want[i])
		}
	}
	if r.Grants != 3 || r.MaxInUse != 1 {
		t.Errorf("Grants=%d MaxInUse=%d, want 3/1", r.Grants, r.MaxInUse)
	}
}

func TestResourceFIFOHeadOfLineBlocking(t *testing.T) {
	s := New()
	r := NewResource(s, 2)
	var order []string
	r.Acquire(2, func() {
		order = append(order, "big1")
		s.After(5, func() { r.Release(2) })
	})
	r.Acquire(2, func() {
		order = append(order, "big2")
		s.After(5, func() { r.Release(2) })
	})
	// A 1-unit request behind a queued 2-unit request must wait (FIFO,
	// no backfill), even though 1 unit would be free at t=5.
	r.Acquire(1, func() { order = append(order, "small") })
	s.Run()
	if len(order) != 3 || order[0] != "big1" || order[1] != "big2" || order[2] != "small" {
		t.Fatalf("order = %v, want [big1 big2 small]", order)
	}
}

// The waiters backing array must not retain granted requests: after heavy
// one-in-one-out traffic the internal queue stays compact (live window at
// the front, dead prefix bounded).
func TestResourceQueueStaysCompact(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	for i := 0; i < 10000; i++ {
		r.Acquire(1, func() { s.After(1, func() { r.Release(1) }) })
	}
	s.Run()
	if r.QueueLen() != 0 {
		t.Fatalf("QueueLen = %d, want 0", r.QueueLen())
	}
	if len(r.queue) != 0 || r.whead != 0 {
		t.Errorf("internal queue not reset: len=%d whead=%d", len(r.queue), r.whead)
	}
	if got := int(r.Grants); got != 10000 {
		t.Errorf("Grants = %d, want 10000", got)
	}
}

func TestResourceSetCapacityGrow(t *testing.T) {
	s := New()
	r := NewResource(s, 0)
	granted := false
	r.Acquire(1, func() { granted = true })
	s.Run()
	if granted {
		t.Fatal("grant from zero-capacity pool")
	}
	r.SetCapacity(1)
	s.Run()
	if !granted {
		t.Fatal("grow did not wake waiter")
	}
}

func TestResourceSetCapacityShrinkBelowInUse(t *testing.T) {
	s := New()
	r := NewResource(s, 2)
	r.Acquire(2, func() {})
	s.Run()
	r.SetCapacity(1)
	granted := false
	r.Acquire(1, func() { granted = true })
	s.Run()
	if granted {
		t.Fatal("grant while pool over capacity")
	}
	r.Release(2)
	s.Run()
	if !granted {
		t.Fatal("waiter not woken after release restored headroom")
	}
	if r.InUse() != 1 {
		t.Errorf("InUse = %d, want 1", r.InUse())
	}
}

func TestResourceReleasePanics(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	r.Release(1)
}

func TestResourceInvariantNeverOversubscribed(t *testing.T) {
	s := New()
	const cap = 3
	r := NewResource(s, cap)
	rs := newTestStream(42)
	for i := 0; i < 200; i++ {
		n := 1 + int(rs()%3)
		if n > cap {
			n = cap
		}
		start := float64(rs() % 50)
		hold := 1 + float64(rs()%20)
		s.At(Time(start), func() {
			r.Acquire(n, func() {
				if r.InUse() > r.Capacity() {
					t.Errorf("oversubscribed: %d > %d", r.InUse(), r.Capacity())
				}
				s.After(hold, func() { r.Release(n) })
			})
		})
	}
	s.Run()
	if r.InUse() != 0 {
		t.Errorf("leaked units: InUse = %d", r.InUse())
	}
	if r.MaxInUse > cap {
		t.Errorf("MaxInUse %d exceeds capacity %d", r.MaxInUse, cap)
	}
}

// newTestStream is a tiny local RNG so this package does not depend on
// sim/rng (keeping the dependency graph acyclic for rng tests that may use
// des in the future).
func newTestStream(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
}
