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
	prev, next *entry[K, V] // LRU list: head = most recent, tail = eviction victim
}

// shard is one independently locked slice of the cache. The map, the
// LRU list and the byte accounting form one invariant (every entry is
// in both structures and counted exactly once), so they share a guard;
// maxBytes is immutable after construction and the atomics are
// lock-free telemetry.
type shard[K comparable, V any] struct {
	mu sync.Mutex
	//pegflow:guarded mu
	entries map[K]*entry[K, V]
	//pegflow:guarded mu
	head *entry[K, V]
	//pegflow:guarded mu
	tail *entry[K, V]
	//pegflow:guarded mu
	bytes    int64
	maxBytes int64

	evictions atomic.Uint64
	count     atomic.Int64
	curBytes  atomic.Int64
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
		c.shards[i] = &shard[K, V]{entries: make(map[K]*entry[K, V]), maxBytes: per}
	}
	return c
}

func (c *Cache[K, V]) shardFor(k K) *shard[K, V] {
	return c.shards[c.hash(k)%uint64(len(c.shards))]
}

// Get returns the value cached under k and refreshes its recency. The
// returned value is shared with the cache: callers must not modify it.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	if ok {
		s.moveToFront(e)
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	c.hits.Add(1)
	return e.value, true
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		// Concurrent misses on one key race to Put; every user caches a
		// pure function of the key, or an entry that builds one once, so
		// the incumbent serves: refresh its recency and hand it back.
		s.moveToFront(e)
		return e.value
	}
	e := &entry[K, V]{key: k, value: v}
	s.entries[k] = e
	s.pushFront(e)
	s.bytes += size
	for s.bytes > s.maxBytes && s.tail != nil && s.tail != e {
		victim := s.tail
		s.unlink(victim)
		delete(s.entries, victim.key)
		s.bytes -= c.size(victim.key, victim.value)
		s.evictions.Add(1)
	}
	s.count.Store(int64(len(s.entries)))
	s.curBytes.Store(s.bytes)
	return v
}

// Clear drops every entry. Counters keep counting: a cleared entry is not
// an eviction.
func (c *Cache[K, V]) Clear() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.entries = make(map[K]*entry[K, V])
		s.head, s.tail, s.bytes = nil, nil, 0
		s.count.Store(0)
		s.curBytes.Store(0)
		s.mu.Unlock()
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

// moveToFront marks e most-recently-used. Caller holds s.mu.
//
//pegflow:holds mu
func (s *shard[K, V]) moveToFront(e *entry[K, V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// pushFront links e at the head. Caller holds s.mu.
//
//pegflow:holds mu
func (s *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// unlink removes e from the list. Caller holds s.mu.
//
//pegflow:holds mu
func (s *shard[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
