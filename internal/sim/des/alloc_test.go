package des

import (
	"reflect"
	"testing"
	"unsafe"
)

// The allocation regression gate (run by CI as `go test -run 'TestAllocs'`):
// the slab-backed kernel must not allocate in steady state, whether events
// are scheduled typed (AtOp, AcquireOp) or through the closure adapters
// (At, After, Acquire), which wrap the func in a Handler without boxing it,
// and whether they are one-off or periodic (AtSeriesOp). Every test warms
// the arenas to their high-water mark first, then measures.

// countHandler is a typed-event receiver: it adds arg to the counter op
// selects.
type countHandler struct{ n [2]int }

func (c *countHandler) HandleEvent(op, arg int32) { c.n[op] += int(arg) }

func TestAllocsScheduleFire(t *testing.T) {
	s := New()
	fn := func() {}
	h := &countHandler{}
	for i := 0; i < 128; i++ {
		s.After(float64(i), fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(1, fn)
		s.At(s.Now()+1, fn)
		s.AfterOp(1, h, 1, 2)
		s.Step()
		s.Step()
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("schedule→fire steady state allocates %.1f/op, want 0", allocs)
	}
	if h.n[1] != 2*1001 {
		t.Errorf("typed events delivered %d, want %d", h.n[1], 2*1001)
	}
}

func TestAllocsScheduleFireDeepQueue(t *testing.T) {
	s := New()
	fn := func() {}
	h := &countHandler{}
	for i := 0; i < 256; i++ {
		s.After(float64(i+1), fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(300, fn)
		s.AtOp(s.Now()+300, h, 0, 1)
		s.Step()
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("deep-queue schedule→fire allocates %.1f/op, want 0", allocs)
	}
}

// Zero-delay events go to the lane, not the heap: a slot grant is one. The
// lane is threaded through the event slab, so it has no storage to grow.
func TestAllocsScheduleFireZeroDelay(t *testing.T) {
	s := New()
	fn := func() {}
	h := &countHandler{}
	s.After(1e9, fn) // a heap entry the lane is compared against
	for i := 0; i < 128; i++ {
		s.After(0, fn)
	}
	for s.Pending() > 1 {
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(0, fn)
		s.AfterOp(0, h, 1, 2)
		s.Step()
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("zero-delay schedule→fire allocates %.1f/op, want 0", allocs)
	}
	if h.n[1] != 2*1001 || s.Now() != 0 {
		t.Errorf("typed events delivered %d by %v, want %d at 0s", h.n[1], s.Now(), 2*1001)
	}
}

// A periodic series is one record, and a retired series' record is reused
// by the next one: scheduling and firing series in steady state allocates
// nothing. Two series run at once, so each firing looks for the earliest of
// two.
func TestAllocsSeries(t *testing.T) {
	s := New()
	h := &countHandler{}
	s.AtSeriesOp(3, 1, h, 1, 0)
	s.AtSeriesOp(2, 1.5, h, 1, 0)
	s.Run()
	// Firings are at multiples of dt, so each pass starts past the clock;
	// the clock grows sixfold a pass, which 100 passes keep far from
	// overflow.
	allocs := testing.AllocsPerRun(100, func() {
		dt := 2 * float64(s.Now())
		s.AtSeriesOp(3, dt, h, 1, 0)
		s.AtSeriesOp(2, 1.5*dt, h, 1, 0)
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("series schedule→fire steady state allocates %.1f/op, want 0", allocs)
	}
	if want := 9 * 102; h.n[1] != want || len(s.series) != 2 {
		t.Errorf("series delivered %d over %d records, want %d over 2", h.n[1], len(s.series), want)
	}
}

func TestAllocsCancel(t *testing.T) {
	s := New()
	fn := func() {}
	h := &countHandler{}
	for i := 0; i < 128; i++ {
		s.Cancel(s.After(float64(i), fn))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Cancel(s.After(1, fn))
		s.Cancel(s.AfterOp(1, h, 0, 1))
	})
	if allocs != 0 {
		t.Errorf("schedule→cancel allocates %.1f/op, want 0", allocs)
	}
	if h.n[0] != 0 {
		t.Errorf("a canceled typed event fired")
	}
}

// releaser returns the unit its grant event carries in arg.
type releaser struct{ r *Resource }

func (x releaser) HandleEvent(_, arg int32) { x.r.Release(int(arg)) }

func TestAllocsResourceAcquireRelease(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	fn := func() { r.Release(1) }
	h := &releaser{r}
	for i := 0; i < 128; i++ {
		r.Acquire(1, fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		r.Acquire(1, fn)
		r.AcquireOp(1, h, 0, 1)
		for s.Step() {
		}
	})
	if allocs != 0 {
		t.Errorf("acquire→grant→release allocates %.1f/op, want 0", allocs)
	}
	if r.InUse() != 0 || r.Grants != 128+2*1001 {
		t.Errorf("in use %d after %d grants, want 0 after %d", r.InUse(), r.Grants, 128+2*1001)
	}
}

// A reserved kernel takes its whole load without growing: Reserve is what
// lets a run that knows its plan's size allocate each slab once.
func TestAllocsReservedBurst(t *testing.T) {
	const n = 1000
	h := &countHandler{}
	allocs := testing.AllocsPerRun(3, func() {
		s := New()
		r := NewResource(s, 1)
		s.Reserve(n + 1) // the first request is granted at once: one grant event
		r.Reserve(n)
		for i := 0; i < n; i++ {
			s.AfterOp(float64(i), h, 0, 1)
			r.AcquireOp(1, h, 0, 1)
		}
	})
	// The simulation, the resource and three slabs: events, heap, wait
	// queue.
	if allocs > 5 {
		t.Errorf("reserved burst of %d events and requests made %.0f allocations, want <= 5", n, allocs)
	}
}

// The arena's records stay two to a cache line, and the heap's four
// siblings share one.
func TestSlabRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 32 {
		t.Errorf("event record is %d B, want 32", n)
	}
	if n := unsafe.Sizeof(heapEntry{}); n != 16 {
		t.Errorf("heap entry is %d B, want 16", n)
	}
}

// TestSlabTypesCarryNoCopy: the leading noCopy field is what makes `go vet`
// reject a by-value copy of a slab type; dropping it must fail here.
func TestSlabTypesCarryNoCopy(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf((*Simulation)(nil)).Elem(),
		reflect.TypeOf((*Resource)(nil)).Elem(),
	} {
		if f := typ.Field(0); f.Type != reflect.TypeOf(noCopy{}) {
			t.Errorf("%s: first field is %s %s, want the noCopy guard", typ, f.Name, f.Type)
		}
	}
}
