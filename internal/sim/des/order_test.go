package des

import (
	"testing"
)

// FuzzKernelOrder is the proof that the 4-ary inline-key heap fires events
// in (time, scheduling sequence) order — the order of the binary heap it
// replaced, and the one every output byte depends on. A byte program drives
// the kernel through interleavings of At (the closure adapter), AtOp, Cancel
// and Step, with coarse times so that ties are common and cancels that hit
// interior heap entries; a reference model that scans its live events for
// the minimum (at, seq) says what must fire. After every move EventTime and
// Live are probed for every handle issued so far, stale ones included.
//
// The seed corpus runs under plain `go test`; CI fuzzes for 10 s.
func FuzzKernelOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 3, 0, 3, 3, 3, 3, 3})                   // ties on one instant, then drain past empty
	f.Add([]byte{0, 9, 1, 9, 0, 9, 1, 1, 2, 1, 2, 0, 2, 1, 3, 3}) // cancel interior, head, and a stale handle
	// A long pseudo-random program: a heap several levels deep.
	long := make([]byte, 6000)
	state := uint32(2463534242)
	for i := range long {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		long[i] = byte(state >> 11)
	}
	f.Add(long)
	// The same, weighted towards scheduling: deeper still.
	deep := append([]byte(nil), long...)
	for i := 0; i+1 < len(deep); i += 2 {
		if deep[i]%4 >= 2 && deep[i+1]%3 != 0 {
			deep[i] &^= 2
		}
	}
	f.Add(deep)

	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<13 {
			prog = prog[:1<<13] // the model is quadratic
		}
		runKernelProgram(t, prog)
	})
}

// modelEvent is the reference's view of one scheduled event.
type modelEvent struct {
	at   Time
	id   EventID
	live bool
}

// orderRecorder receives the typed events of a kernel program: arg is the
// event's index in the model.
type orderRecorder struct{ fired []int32 }

func (r *orderRecorder) HandleEvent(_, arg int32) { r.fired = append(r.fired, arg) }

func runKernelProgram(t *testing.T, prog []byte) {
	s := New()
	rec := &orderRecorder{}
	var model []modelEvent // index = scheduling sequence

	probe := func(move string) {
		live := 0
		for i, m := range model {
			at, ok := s.EventTime(m.id)
			if ok != m.live || s.Live(m.id) != m.live {
				t.Fatalf("after %s: event %d live=%v, kernel says EventTime ok=%v Live=%v",
					move, i, m.live, ok, s.Live(m.id))
			}
			if ok && at != m.at {
				t.Fatalf("after %s: event %d EventTime = %v, want %v", move, i, at, m.at)
			}
			if m.live {
				live++
			}
		}
		if s.Pending() != live {
			t.Fatalf("after %s: Pending = %d, model has %d live", move, s.Pending(), live)
		}
	}

	for pc := 0; pc < len(prog); pc++ {
		op := prog[pc] % 4
		arg := byte(0)
		if op != 3 && pc+1 < len(prog) {
			pc++
			arg = prog[pc]
		}
		switch op {
		case 0, 1: // schedule, 0..7 s ahead: ties are the common case
			at := s.Now() + Time(arg%8)
			n := int32(len(model))
			var id EventID
			if op == 0 {
				id = s.At(at, func() { rec.fired = append(rec.fired, n) })
			} else {
				id = s.AtOp(at, rec, 0, n)
			}
			model = append(model, modelEvent{at: at, id: id, live: true})
			probe("schedule")
		case 2: // cancel any handle ever issued, live or stale
			if len(model) == 0 {
				continue
			}
			// Two program bytes pick the victim when there are many.
			k := int(arg)
			if pc+1 < len(prog) {
				k = k<<8 | int(prog[pc+1])
			}
			k %= len(model)
			s.Cancel(model[k].id)
			model[k].live = false
			probe("cancel")
		case 3:
			want := -1
			for i, m := range model {
				// Indices are scheduling order, so the first minimum wins ties.
				if m.live && (want < 0 || m.at < model[want].at) {
					want = i
				}
			}
			before := len(rec.fired)
			stepped := s.Step()
			if want < 0 {
				if stepped || len(rec.fired) != before {
					t.Fatalf("Step on an empty queue returned %v and fired %d events", stepped, len(rec.fired)-before)
				}
				continue
			}
			if !stepped || len(rec.fired) != before+1 {
				t.Fatalf("Step returned %v and fired %d events, want event %d", stepped, len(rec.fired)-before, want)
			}
			if got := rec.fired[before]; int(got) != want {
				t.Fatalf("Step fired event %d (at %v), want event %d (at %v)",
					got, model[got].at, want, model[want].at)
			}
			if s.Now() != model[want].at {
				t.Fatalf("clock at %v after firing event %d scheduled for %v", s.Now(), want, model[want].at)
			}
			model[want].live = false
			probe("step")
		}
	}

	// Drain: everything still live fires, in order.
	last := s.Now()
	for s.Step() {
		if s.Now() < last {
			t.Fatalf("clock went back from %v to %v", last, s.Now())
		}
		last = s.Now()
		got := rec.fired[len(rec.fired)-1]
		for i, m := range model {
			if m.live && (m.at < model[got].at || (m.at == model[got].at && i < int(got))) {
				t.Fatalf("drain fired event %d (at %v) before event %d (at %v)", got, model[got].at, i, m.at)
			}
		}
		if !model[got].live {
			t.Fatalf("drain fired event %d, which is not live", got)
		}
		model[got].live = false
	}
	probe("drain")
}
