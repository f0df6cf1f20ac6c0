package des

// The observers and drivers below have no caller outside tests: a model
// runs the kernel with Step and schedules with AtOp, AfterOp, After or
// AtSeriesOp. The tests read the kernel's state and drive it through these.

// Processed returns the number of events executed so far.
func (s *Simulation) Processed() uint64 { return s.processed }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a model bug.
func (s *Simulation) At(t Time, fn func()) EventID {
	return s.AtOp(t, funcHandler(fn), 0, 0)
}

// Live reports whether the handle's event is still scheduled (not yet
// fired and not canceled).
func (s *Simulation) Live(id EventID) bool { return s.lookup(id) != nil }

// EventTime returns the virtual time at which the handle's event will fire.
// The second result is false when the handle is stale. It scans the heap:
// O(pending), for tests and diagnostics.
func (s *Simulation) EventTime(id EventID) (Time, bool) {
	if s.lookup(id) == nil {
		return 0, false
	}
	for _, ent := range s.heap {
		if ent.slot == id.slot {
			return ent.at, true
		}
	}
	return s.now, true // in the lane
}

// Pending returns the number of events waiting to fire, counting each
// remaining firing of a series.
func (s *Simulation) Pending() int { return s.pending }

// Run executes events until the queue is empty.
func (s *Simulation) Run() {
	for s.Step() {
	}
}

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Available returns the number of free units.
func (r *Resource) Available() int { return r.capacity - r.inUse }

// QueueLen returns the number of waiting requests.
func (r *Resource) QueueLen() int { return len(r.queue) - r.whead }
