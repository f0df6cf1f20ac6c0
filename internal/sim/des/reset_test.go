package des

import (
	"reflect"
	"testing"
)

// recorder logs every event it is handed, with the clock at firing.
type recorder struct {
	s   *Simulation
	log []float64
}

func (r *recorder) HandleEvent(op, arg int32) {
	r.log = append(r.log, r.s.Now().Seconds(), float64(op), float64(arg))
}

// resetProgram schedules one-off events, a series, a cancellation and
// resource grants on s, runs it, and returns what fired, the handles it was
// given and the resource's counters.
func resetProgram(s *Simulation, r *Resource) (fired []float64, ids []EventID, grants uint64, maxInUse int, busy float64) {
	rec := &recorder{s: s}
	for i := int32(0); i < 20; i++ {
		ids = append(ids, s.AtOp(Time(float64(i%7)+0.5), rec, 1, i))
	}
	s.AtSeriesOp(5, 2, rec, 2, 100)
	s.Cancel(ids[3])
	for i := int32(0); i < 6; i++ {
		r.AcquireOp(1, rec, 3, i)
	}
	s.AtOp(4, funcHandler(func() { r.Release(1); r.Release(1) }), 0, 0)
	s.Run()
	return rec.log, ids, r.Grants, r.MaxInUse, r.BusySlotSeconds()
}

// TestResetRunsLikeNew: a simulation and a resource reset midway through
// another program — events pending, a series half fired, requests waiting —
// run the next program exactly as fresh ones do: the same firings at the
// same times, the same handles, the same resource counters, and no event of
// the abandoned program.
func TestResetRunsLikeNew(t *testing.T) {
	fresh := New()
	wantFired, wantIDs, wantGrants, wantMax, wantBusy := resetProgram(fresh, NewResource(fresh, 2))

	s := New()
	r := NewResource(s, 1)
	stale := &recorder{s: s}
	for i := int32(0); i < 50; i++ {
		s.AtOp(Time(i), stale, 9, i)
	}
	s.AtSeriesOp(10, 3, stale, 9, 0)
	for i := int32(0); i < 4; i++ {
		r.AcquireOp(1, stale, 9, i)
	}
	for k := 0; k < 12; k++ {
		s.Step()
	}
	s.Reset()
	r.Reset(s, 2)
	if s.Now() != 0 || s.Pending() != 0 || s.Processed() != 0 || r.InUse() != 0 || r.QueueLen() != 0 {
		t.Fatalf("reset left now=%v pending=%d processed=%d inUse=%d queued=%d",
			s.Now(), s.Pending(), s.Processed(), r.InUse(), r.QueueLen())
	}
	staleFired := len(stale.log)
	fired, ids, grants, maxInUse, busy := resetProgram(s, r)
	if len(stale.log) != staleFired {
		t.Error("an event of the abandoned program fired after Reset")
	}
	if !reflect.DeepEqual(fired, wantFired) || !reflect.DeepEqual(ids, wantIDs) {
		t.Errorf("after Reset the program fired\n%v\nwith handles %v; fresh\n%v\nwith %v", fired, ids, wantFired, wantIDs)
	}
	if grants != wantGrants || maxInUse != wantMax || busy != wantBusy {
		t.Errorf("after Reset the resource granted %d (max in use %d, %v slot-seconds); fresh %d (%d, %v)",
			grants, maxInUse, busy, wantGrants, wantMax, wantBusy)
	}
}
