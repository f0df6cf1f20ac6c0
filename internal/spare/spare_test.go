package spare

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// collect runs garbage collections until cond holds, failing after a while:
// a list ages in a finalizer, which runs after its collection, not in it.
func collect(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
		if cond() {
			return
		}
	}
	t.Fatalf("no %s after 5 s of collections", what)
}

// state reads the list's generations under its lock.
func (l *List[T]) state() (young, old int, armed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.young), len(l.old), l.armed
}

// TestGetTakesLastPut: Get takes what was put, most recent first, and nil
// once the list is empty.
func TestGetTakesLastPut(t *testing.T) {
	var l List[int]
	if l.Get() != nil {
		t.Fatal("an empty list handed something out")
	}
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b {
		t.Error("Get did not take the last put first")
	}
	if got := l.Get(); got != a {
		t.Error("Get did not take the first put second")
	}
	if l.Get() != nil {
		t.Error("Get handed out more than was put")
	}
}

// TestAnyGoroutineTakesWhatAnotherPut: what one goroutine releases, another
// claims — the reuse sync.Pool leaves to which P each runs on.
func TestAnyGoroutineTakesWhatAnotherPut(t *testing.T) {
	var l List[int]
	x := new(int)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.Put(x)
	}()
	wg.Wait()
	got := make(chan *int)
	go func() { got <- l.Get() }()
	if <-got != x {
		t.Error("a goroutine did not take what another put")
	}
}

// TestHeldForAtMostTwoCollections: a collection moves what was put to the
// old generation, where Get still finds it; the next drops it, and a list
// left empty stops arming itself.
func TestHeldForAtMostTwoCollections(t *testing.T) {
	var l List[int]
	x := new(int)
	l.Put(x)
	collect(t, "aging", func() bool { y, o, _ := l.state(); return y == 0 && o == 1 })
	if got := l.Get(); got != x {
		t.Fatal("what one collection aged is not handed out")
	}

	l.Put(new(int))
	collect(t, "drop", func() bool { y, o, armed := l.state(); return y == 0 && o == 0 && !armed })
	if l.Get() != nil {
		t.Error("the list holds something two collections after its last Put")
	}
}
