package spare

import (
	"runtime"
	"sync"
)

// List is a free list of released *T. The zero List is ready to use. Its
// methods are safe for concurrent use; what a goroutine puts, the next Get
// on any goroutine may take.
type List[T any] struct {
	mu sync.Mutex
	// young holds what was put since the last collection, old what was
	// put before it and not taken since; the next collection drops old.
	young, old []*T
	// armed is set while a sentinel waits to age the list at the next
	// collection; a list with nothing in it has none.
	armed bool
}

// Put hands x to a later Get. The caller gives x up.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.young = append(l.young, x)
	if !l.armed {
		l.armed = true
		arm(l)
	}
}

// Get takes the most recently put *T still held, or returns nil.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if x := pop(&l.young); x != nil {
		return x
	}
	return pop(&l.old)
}

// pop takes the last element of *gen, or returns nil.
func pop[T any](gen *[]*T) *T {
	n := len(*gen)
	if n == 0 {
		return nil
	}
	x := (*gen)[n-1]
	(*gen)[n-1] = nil
	*gen = (*gen)[:n-1]
	return x
}

// age runs once per garbage collection while the list holds anything: the
// old generation is dropped and the young one becomes old.
func (l *List[T]) age() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.old)
	l.old, l.young = l.young, l.old[:0]
	l.armed = len(l.old) > 0
	if l.armed {
		arm(l)
	}
}

// sentinel is the object whose collection ages a list. It holds a pointer
// so that it is never a tiny allocation, which could share a block with
// live objects and outlive its cycle.
type sentinel struct{ _ *sentinel }

// arm ages l at the next garbage collection: the finalizer of an object
// nothing references runs once the collector has found it unreachable.
func arm[T any](l *List[T]) {
	runtime.SetFinalizer(new(sentinel), func(*sentinel) { l.age() })
}
