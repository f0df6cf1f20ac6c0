package lru

import (
	"sync"
	"sync/atomic"
)

// DefaultShards is the shard count callers without a reason to choose use.
// 16 keeps per-shard mutexes uncontended well past the request concurrency
// the serve tier admits, while the fixed fan-out keeps Stats aggregation
// trivial.
const DefaultShards = 16

// entry is one cached value threaded on its shard's LRU list.
type entry[K comparable, V any] struct {
	key        K
	value      V
	prev, next *entry[K, V]
}

// shard is one independently locked slice of the cache: a mutex and the
// list it serializes. get, put and clear are the only code that touches the
// list, and each holds the mutex for its whole body. maxBytes is immutable
// after construction and the atomics are lock-free telemetry.
type shard[K comparable, V any] struct {
	mu       sync.Mutex
	list     list[K, V]
	maxBytes int64

	evictions atomic.Uint64
	count     atomic.Int64
	curBytes  atomic.Int64
}

// list is a shard's map, recency list and byte count. They form one
// invariant — every entry is in both structures and charged exactly once —
// and list is not safe for concurrent use: only its shard's locked methods
// call it. The zero list is empty.
type list[K comparable, V any] struct {
	entries    map[K]*entry[K, V]
	head, tail *entry[K, V] // head = most recent, tail = eviction victim
	bytes      int64
}

// Cache is a sharded, byte-bounded, least-recently-used map. It is safe
// for concurrent use. Values handed to Put and returned by Get are shared,
// not copied: callers must treat them as immutable.
type Cache[K comparable, V any] struct {
	shards   []*shard[K, V]
	maxBytes int64
	hash     func(K) uint64
	size     func(K, V) int64

	hits   atomic.Uint64
	misses atomic.Uint64
}

// Stats is a point-in-time snapshot of the cache counters, aggregated
// across shards. Hits/Misses/Evictions are monotone for the cache's
// lifetime; Entries and Bytes describe current occupancy.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int64  `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
}

// New builds a cache bounded by maxBytes total, split evenly over the
// given number of shards. hash routes a key to its shard (the map inside
// the shard still compares whole keys); size is an entry's charge against
// the budget and must return the same value every time it is asked about
// the same entry. maxBytes must be positive.
func New[K comparable, V any](maxBytes int64, shards int, hash func(K) uint64, size func(K, V) int64) *Cache[K, V] {
	if maxBytes <= 0 {
		panic("lru: non-positive byte bound")
	}
	if shards <= 0 {
		shards = 1
	}
	c := &Cache[K, V]{shards: make([]*shard[K, V], shards), maxBytes: maxBytes, hash: hash, size: size}
	per := maxBytes / int64(shards)
	if per <= 0 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = &shard[K, V]{maxBytes: per}
	}
	return c
}

func (c *Cache[K, V]) shardFor(k K) *shard[K, V] {
	return c.shards[c.hash(k)%uint64(len(c.shards))]
}

// Get returns the value cached under k and refreshes its recency. The
// returned value is shared with the cache: callers must not modify it.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	v, ok := c.shardFor(k).get(k)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Put stores v under k, evicting least-recently-used entries from the
// key's shard until the shard fits its byte budget, and returns the value
// resident under k after the call: the incumbent if k was already cached,
// else v — stored, or, when too large for the shard budget, refused and
// returned uncached. The cache keeps a reference to v: callers must not
// modify it after Put.
func (c *Cache[K, V]) Put(k K, v V) V {
	size := c.size(k, v)
	s := c.shardFor(k)
	if size > s.maxBytes {
		return v
	}
	return s.put(k, v, size, c.size)
}

// Clear drops every entry. Counters keep counting: a cleared entry is not
// an eviction.
func (c *Cache[K, V]) Clear() {
	for _, s := range c.shards {
		s.clear()
	}
}

// Stats aggregates the counters across shards.
func (c *Cache[K, V]) Stats() Stats {
	st := Stats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		MaxBytes: c.maxBytes,
	}
	for _, s := range c.shards {
		st.Evictions += s.evictions.Load()
		st.Entries += s.count.Load()
		st.Bytes += s.curBytes.Load()
	}
	return st
}

// get returns the value under k and marks it most-recently-used.
func (s *shard[K, V]) get(k K) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.list.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	s.list.moveToFront(e)
	return e.value, true
}

// put stores v, charged size, under k unless k is resident, evicts from
// the tail until the shard fits, and returns the value resident under k.
// size must not exceed maxBytes; charge prices the victims.
func (s *shard[K, V]) put(k K, v V, size int64, charge func(K, V) int64) V {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.list.entries[k]; ok {
		// Concurrent misses on one key race to Put; every user caches a
		// pure function of the key, or an entry that builds one once, so
		// the incumbent serves: refresh its recency and hand it back.
		s.list.moveToFront(e)
		return e.value
	}
	if s.list.entries == nil {
		s.list.entries = make(map[K]*entry[K, V])
	}
	e := &entry[K, V]{key: k, value: v}
	s.list.entries[k] = e
	s.list.pushFront(e)
	s.list.bytes += size
	for s.list.bytes > s.maxBytes && s.list.tail != e {
		s.list.evict(charge)
		s.evictions.Add(1)
	}
	s.count.Store(int64(len(s.list.entries)))
	s.curBytes.Store(s.list.bytes)
	return v
}

// clear empties the shard.
func (s *shard[K, V]) clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = list[K, V]{}
	s.count.Store(0)
	s.curBytes.Store(0)
}

// moveToFront marks e most-recently-used.
func (l *list[K, V]) moveToFront(e *entry[K, V]) {
	if l.head == e {
		return
	}
	l.unlink(e)
	l.pushFront(e)
}

// pushFront links e at the head.
func (l *list[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

// unlink removes e from the recency list.
func (l *list[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// evict drops the least-recently-used entry, which charge prices.
func (l *list[K, V]) evict(charge func(K, V) int64) {
	victim := l.tail
	l.unlink(victim)
	delete(l.entries, victim.key)
	l.bytes -= charge(victim.key, victim.value)
}
