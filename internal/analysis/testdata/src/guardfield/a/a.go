// Package a is a guardfield fixture: accesses to //pegflow:guarded
// fields with and without the guarding mutex held on every path.
package a

import "sync"

type counter struct {
	mu sync.Mutex
	//pegflow:guarded mu
	n int

	rw sync.RWMutex
	//pegflow:guarded rw
	m map[string]int
}

func (c *counter) goodLocked() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) goodDeferred() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) badUnlocked() int {
	return c.n // want "c.mu is not held on every path"
}

func (c *counter) badAfterUnlock() {
	c.mu.Lock()
	c.n = 1
	c.mu.Unlock()
	c.n = 2 // want "not held on every path"
}

// badOneArm locks on only one branch: the join must not count as held.
func (c *counter) badOneArm(b bool) {
	if b {
		c.mu.Lock()
	}
	c.n = 3 // want "not held on every path"
	if b {
		c.mu.Unlock()
	}
}

// goodLoop: the hold survives the loop's back edge.
func (c *counter) goodLoop() {
	c.mu.Lock()
	for i := 0; i < 8; i++ {
		c.n += i
	}
	c.mu.Unlock()
}

func (c *counter) badAfterLoopUnlock(xs []int) {
	for range xs {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
	c.n = 0 // want "not held on every path"
}

func (c *counter) goodRead(k string) int {
	c.rw.RLock()
	defer c.rw.RUnlock()
	return c.m[k]
}

func (c *counter) badWriteUnderRLock(k string) {
	c.rw.RLock()
	defer c.rw.RUnlock()
	c.m[k] = 1 // want "holding only the read lock"
}

func (c *counter) goodWriteLock(k string) {
	c.rw.Lock()
	defer c.rw.Unlock()
	c.m[k] = 1
}

// bump requires the caller to hold c.mu; its own body is checked with
// the mutex assumed held.
//
//pegflow:holds mu
func (c *counter) bump() { c.n++ }

func (c *counter) goodHoldsCall() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bump()
}

func (c *counter) badHoldsCall() {
	c.bump() // want "requires c.mu held"
}

// goroutine bodies are their own functions: the closure must lock for
// itself even though the spawner held the mutex.
func (c *counter) badClosureInheritsNothing() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want "not held on every path"
	}()
	c.n++
}

// Guarded locals: the var-block sibling mutex guards them.
func locals(xs []int) int {
	var (
		mu sync.Mutex
		//pegflow:guarded mu
		total int
	)
	for _, x := range xs {
		mu.Lock()
		total += x
		mu.Unlock()
	}
	return total // want "mu is not held on every path"
}

type broken struct {
	//pegflow:guarded nosuch
	v int // want "names no sibling field"
}

func useBroken(b *broken) int { return b.v }

// Generic owners: inside a method the receiver is an instantiation, whose
// fields of parameterized type and whose methods are copies of the
// declared ones; the annotations must follow them to their origin.
type table[K comparable, V any] struct {
	mu sync.Mutex
	//pegflow:guarded mu
	entries map[K]V
	//pegflow:guarded mu
	size int
}

func (t *table[K, V]) goodGet(k K) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.entries[k]
	return v, ok
}

func (t *table[K, V]) badGet(k K) V {
	return t.entries[k] // want "t.mu is not held on every path"
}

//pegflow:holds mu
func (t *table[K, V]) put(k K, v V) {
	t.entries[k] = v
	t.size++
}

func (t *table[K, V]) goodPut(k K, v V) {
	t.mu.Lock()
	t.put(k, v)
	t.mu.Unlock()
}

func (t *table[K, V]) badPut(k K, v V) {
	t.put(k, v) // want "requires t.mu held"
}

func useTable(t *table[string, int]) int {
	t.put("a", 1)         // want "requires t.mu held"
	return len(t.entries) // want "t.mu is not held on every path"
}
