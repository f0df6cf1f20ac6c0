package des

import (
	"reflect"
	"testing"
)

// The allocation regression gate (run by CI as `go test -run 'TestAllocs'`):
// the slab-backed kernel must not allocate in steady state, whether events
// are scheduled typed (AtOp, AcquireOp) or through the closure adapters
// (At, After, Acquire), which wrap the func in a Handler without boxing it.
// Every test warms the arenas to their high-water mark first, then measures.

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
		s.AfterOp(1, h, 1, 2)
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
	// The simulation, the resource and four slabs: events, heap, requests,
	// wait queue.
	if allocs > 6 {
		t.Errorf("reserved burst of %d events and requests made %.0f allocations, want <= 6", n, allocs)
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
