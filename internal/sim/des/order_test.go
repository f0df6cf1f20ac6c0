package des

import (
	"math"
	"testing"
)

// FuzzKernelOrder is the proof that the kernel fires events in (time,
// scheduling sequence) order — the order of the binary heap it replaced, and
// the one every output byte depends on — whichever of its three sources
// (the lane of events due now, the 4-ary heap, a periodic series) holds
// them. A byte program drives the kernel through interleavings of At (the
// closure adapter), AtOp, AtSeriesOp, Cancel and Step, of events whose
// handler schedules a zero-delay event when it fires, and of a Resource's
// AcquireOp, Release and SetCapacity, with coarse times so that ties are
// common and cancels hit lane entries and interior heap entries; a
// reference model that scans its live events for the minimum (at, seq)
// says what must fire. It expands a series into its n one-off events with
// consecutive sequence numbers, and models the Resource as a FIFO with
// head-of-line blocking whose grants are zero-delay events scheduled at
// the move that makes room for them; InUse, QueueLen, MaxInUse and Grants
// are checked against it after every move. After every move every handle
// issued so far, stale ones included, is checked against one pass over the
// queue (Live, and the firing time of each live one), and EventTime and
// Live are called on the handle the move touched and a few in rotation.
//
// The seed corpus runs under plain `go test`; CI fuzzes for 10 s.
func FuzzKernelOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 3, 0, 3, 3, 3, 3, 3})                   // ties on one instant, then drain past empty
	f.Add([]byte{0, 9, 1, 9, 0, 9, 1, 1, 2, 1, 2, 0, 2, 1, 3, 3}) // cancel interior, head, and a stale handle
	f.Add([]byte{0, 2, 4, 5, 1, 2, 0, 4, 3, 3, 3, 3, 3, 3})       // a series tied with one-off events at 2 s and 4 s
	f.Add([]byte{0, 0, 1, 0, 0, 8, 2, 0, 1, 3, 3, 3})             // cancel a lane entry between two others
	f.Add([]byte{5, 0, 5, 0, 1, 1, 3, 0, 0, 3, 3, 3, 3, 3})       // zero-delay events scheduled by handlers, in the lane
	f.Add([]byte{5, 2, 4, 1, 1, 2, 3, 3, 3, 3, 4, 6, 3, 3, 3, 3}) // handler-scheduled lane events tied with a series
	f.Add([]byte{6, 0, 6, 0, 8, 1, 6, 0, 7, 0, 3, 8, 3, 3, 3, 3}) // shrink the capacity below in-use, release, then grow
	f.Add([]byte{6, 0, 6, 1, 6, 0, 3, 3, 7, 0, 3, 7, 0, 3, 3})    // a 2-unit request blocks a 1-unit one behind it
	// Two live series at once (2 s and 4 s; 4 s and 8 s), tied at 4 s with
	// each other, a typed and a closure event, and a spawning event whose
	// lane event lands at 4 s behind them all; a third series starts at 2 s.
	f.Add([]byte{4, 5, 4, 13, 1, 4, 5, 2, 5, 4, 0, 4, 3, 3, 4, 1, 1, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
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
		if op := deep[i] % kernelOps; (op == 2 || op == 3) && deep[i+1]%3 != 0 {
			deep[i] -= 2
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

// kernelOps is the number of program operations runKernelProgram decodes.
const kernelOps = 9

// modelEvent is the reference's view of one scheduled event. The events of
// a series and the grants of a Resource have no handle (noHandle is set),
// so only Pending sees them.
type modelEvent struct {
	at       Time
	id       EventID
	live     bool
	noHandle bool
}

// modelRequest is one Resource request in the reference model.
type modelRequest struct{ req, n int32 }

// orderRecorder receives the typed events of a kernel program: arg is the
// event's index in the model, or for a grant (op 2) the request's number,
// which grantEvent maps to its grant's index (-1 until the model granted
// it). An event with op 1 calls spawn when it fires.
type orderRecorder struct {
	fired      []int32
	spawn      func()
	grantEvent []int32
}

func (r *orderRecorder) HandleEvent(op, arg int32) {
	if op == 2 {
		arg = r.grantEvent[arg]
	}
	r.fired = append(r.fired, arg)
	if op == 1 {
		r.spawn()
	}
}

func runKernelProgram(t *testing.T, prog []byte) {
	s := New()
	rec := &orderRecorder{}
	var model []modelEvent // index = scheduling sequence
	// A spawning event schedules one zero-delay event when it fires.
	rec.spawn = func() {
		n := int32(len(model))
		id := s.AfterOp(0, rec, 0, n)
		model = append(model, modelEvent{at: s.Now(), id: id, live: true})
	}

	// The Resource and its model: a FIFO wait queue with head-of-line
	// blocking, and the granted requests not yet released.
	res := NewResource(s, 2)
	capacity, inUse, maxInUse, grants := 2, 0, 0, 0
	var waiting, held []modelRequest
	grant := func() {
		for len(waiting) > 0 && inUse+int(waiting[0].n) <= capacity {
			w := waiting[0]
			waiting = waiting[1:]
			inUse += int(w.n)
			maxInUse = max(maxInUse, inUse)
			grants++
			rec.grantEvent[w.req] = int32(len(model))
			model = append(model, modelEvent{at: s.Now(), live: true, noHandle: true})
			held = append(held, w)
		}
	}

	// probe checks the kernel against the model after a move. One pass over
	// the heap and the lane maps each queued slot to its firing time, so
	// every handle is checked in O(1); EventTime, which scans the heap, is
	// called on the handle the move touched (-1: none) and on three more in
	// rotation.
	var queued []Time // firing time of each queued slot; NaN when not queued
	rot := 0
	probe := func(move string, touched int) {
		queued = queued[:0]
		for range s.events {
			queued = append(queued, Time(math.NaN()))
		}
		enqueue := func(slot int32, at Time) {
			if !math.IsNaN(float64(queued[slot])) {
				t.Fatalf("after %s: slot %d is queued twice", move, slot)
			}
			queued[slot] = at
		}
		for _, ent := range s.heap {
			if ent.slot >= 0 {
				enqueue(ent.slot, ent.at)
			}
		}
		for slot := s.laneHead; slot >= 0; slot = s.events[slot].next {
			enqueue(slot, s.Now())
		}
		live := 0
		for i, m := range model {
			if m.live {
				live++
			}
			if m.noHandle {
				continue
			}
			if s.Live(m.id) != m.live {
				t.Fatalf("after %s: event %d live=%v, kernel says Live=%v", move, i, m.live, !m.live)
			}
			if at := queued[m.id.slot]; m.live && at != m.at {
				t.Fatalf("after %s: event %d queued at %v, want %v", move, i, at, m.at)
			}
		}
		if s.Pending() != live {
			t.Fatalf("after %s: Pending = %d, model has %d live", move, s.Pending(), live)
		}
		if res.InUse() != inUse || res.QueueLen() != len(waiting) || res.MaxInUse != maxInUse || res.Grants != uint64(grants) {
			t.Fatalf("after %s: resource InUse=%d QueueLen=%d MaxInUse=%d Grants=%d, model %d/%d/%d/%d",
				move, res.InUse(), res.QueueLen(), res.MaxInUse, res.Grants, inUse, len(waiting), maxInUse, grants)
		}
		check := func(i int) {
			m := model[i]
			if m.noHandle {
				return
			}
			at, ok := s.EventTime(m.id)
			if ok != m.live || s.Live(m.id) != m.live {
				t.Fatalf("after %s: event %d live=%v, kernel says EventTime ok=%v Live=%v",
					move, i, m.live, ok, s.Live(m.id))
			}
			if ok && at != m.at {
				t.Fatalf("after %s: event %d EventTime = %v, want %v", move, i, at, m.at)
			}
		}
		if touched >= 0 {
			check(touched)
		}
		for j := 0; j < 3 && len(model) > 0; j++ {
			rot = (rot + 1) % len(model)
			check(rot)
		}
	}

	for pc := 0; pc < len(prog); pc++ {
		op := prog[pc] % kernelOps
		arg := byte(0)
		if op != 3 && pc+1 < len(prog) {
			pc++
			arg = prog[pc]
		}
		switch op {
		case 0, 1, 5: // schedule, 0..7 s ahead: ties are the common case
			at := s.Now() + Time(arg%8)
			n := int32(len(model))
			var id EventID
			switch op {
			case 0:
				id = s.At(at, func() { rec.fired = append(rec.fired, n) })
			case 1:
				id = s.AtOp(at, rec, 0, n)
			case 5: // an event that spawns a zero-delay event when it fires
				id = s.AtOp(at, rec, 1, n)
			}
			model = append(model, modelEvent{at: at, id: id, live: true})
			probe("schedule", int(n))
		case 4: // a series of 1..4 firings, dt 1..8 s past the clock's whole second
			count := 1 + int(arg%4)
			dt := float64(int(s.Now())) + float64(1+arg/4%8)
			first := int32(len(model))
			s.AtSeriesOp(count, dt, rec, 0, first-1)
			for k := 1; k <= count; k++ {
				model = append(model, modelEvent{at: Time(float64(k) * dt), live: true, noHandle: true})
			}
			probe("series", -1)
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
			if model[k].noHandle {
				continue
			}
			s.Cancel(model[k].id)
			model[k].live = false
			probe("cancel", k)
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
				t.Fatalf("Step fired event %d, want event %d (at %v)", got, want, model[want].at)
			}
			if s.Now() != model[want].at {
				t.Fatalf("clock at %v after firing event %d scheduled for %v", s.Now(), want, model[want].at)
			}
			model[want].live = false
			probe("step", want)
		case 6: // acquire 1 or 2 units
			w := modelRequest{req: int32(len(rec.grantEvent)), n: 1 + int32(arg%2)}
			rec.grantEvent = append(rec.grantEvent, -1)
			res.AcquireOp(int(w.n), rec, 2, w.req)
			waiting = append(waiting, w)
			grant()
			probe("acquire", -1)
		case 7: // release one held grant
			if len(held) == 0 {
				continue
			}
			k := int(arg) % len(held)
			w := held[k]
			held = append(held[:k], held[k+1:]...)
			res.Release(int(w.n))
			inUse -= int(w.n)
			grant()
			probe("release", -1)
		case 8: // set the capacity to 0..3 units
			capacity = int(arg % 4)
			res.SetCapacity(capacity)
			grant()
			probe("capacity", -1)
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
		if got < 0 {
			t.Fatalf("drain fired a grant the model has not made")
		}
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
	probe("drain", -1)
}
