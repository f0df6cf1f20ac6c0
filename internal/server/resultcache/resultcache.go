package resultcache

import "pegflow/internal/lru"

// DefaultShards is the shard count New uses.
const DefaultShards = lru.DefaultShards

// entryOverhead approximates the per-entry bookkeeping cost (map slot,
// list pointers, key copy) charged against the byte budget in addition
// to the fingerprint and line bytes, so a cache full of tiny lines
// cannot balloon far past its nominal bound.
const entryOverhead = 64

// key addresses one finished cell line.
type key struct {
	fingerprint string
	cell        int
}

// Cache is a sharded, byte-bounded, LRU map from (document fingerprint,
// cell index) to the cell's finished NDJSON line: lru.Cache under this
// package's key, hash and entry charge. It is safe for concurrent use.
// Lines handed to Put and returned by Get are shared, not copied: callers
// must treat them as immutable.
type Cache struct {
	lru      *lru.Cache[key, []byte]
	maxBytes int64
}

// Stats is a point-in-time snapshot of the cache counters, aggregated
// across shards. Hits/Misses/Evictions are monotone for the cache's
// lifetime; Entries and Bytes describe current occupancy.
type Stats = lru.Stats

// New builds a cache bounded by maxBytes total, spread over
// DefaultShards shards. maxBytes must be positive.
func New(maxBytes int64) *Cache {
	return newWithShards(maxBytes, DefaultShards)
}

// newWithShards is the constructor tests use to pin eviction order on a
// single shard.
func newWithShards(maxBytes int64, shards int) *Cache {
	if maxBytes <= 0 {
		panic("resultcache: non-positive byte bound")
	}
	return &Cache{lru: lru.New(maxBytes, shards, hashKey, entrySize), maxBytes: maxBytes}
}

// hashKey spreads keys across the shards (FNV-1a over the fingerprint
// bytes, with the cell index mixed in), so the cells of one hot document
// spread over every lock instead of serializing on one.
func hashKey(k key) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.fingerprint); i++ {
		h ^= uint64(k.fingerprint[i])
		h *= prime64
	}
	h ^= uint64(k.cell)
	h *= prime64
	return h
}

// entrySize is the budget charge for one entry.
func entrySize(k key, line []byte) int64 {
	return int64(len(k.fingerprint)) + int64(len(line)) + entryOverhead
}

// Get returns the cached line for (fingerprint, cell) and refreshes its
// recency. The returned slice is shared with the cache: callers must
// not modify it.
func (c *Cache) Get(fingerprint string, cell int) ([]byte, bool) {
	return c.lru.Get(key{fingerprint: fingerprint, cell: cell})
}

// Put stores the line under (fingerprint, cell), evicting
// least-recently-used entries from the key's shard until the shard fits
// its byte budget. A line too large for the shard budget is not stored,
// and a second Put of a resident key keeps the incumbent (cells are
// deterministic, so the lines are byte-identical). The cache keeps a
// reference to line: callers must not modify it after Put.
func (c *Cache) Put(fingerprint string, cell int, line []byte) {
	c.lru.Put(key{fingerprint: fingerprint, cell: cell}, line)
}

// Stats aggregates the counters across shards.
func (c *Cache) Stats() Stats { return c.lru.Stats() }
