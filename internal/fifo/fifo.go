package fifo

// compactThreshold is the minimum dead-prefix length before a compaction
// is considered; below it the copy would cost more than it frees.
const compactThreshold = 32

// noCopy makes `go vet` (copylocks) reject a by-value copy of any struct that
// holds it: the zero-size guard of this package's slab types.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Queue is a first-in-first-out queue of T. The zero value is ready to use.
//
// Copying a Queue by value aliases buf between the copies while head
// diverges, silently re-delivering or dropping elements; go vet flags
// by-value copies.
type Queue[T any] struct {
	_    noCopy
	buf  []T
	head int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v to the tail.
func (q *Queue[T]) Push(v T) { q.buf = append(q.buf, v) }

// Reset empties the queue, keeping its storage; the dropped elements are
// cleared so that nothing they reference is kept alive.
func (q *Queue[T]) Reset() {
	clear(q.buf)
	q.buf = q.buf[:0]
	q.head = 0
}

// Pop removes and returns the head element. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	if q.head >= len(q.buf) {
		panic("fifo: Pop from empty queue")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf = q.buf[:0]
		q.head = 0
	case q.head >= compactThreshold && q.head > len(q.buf)/2:
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = zero
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v
}
