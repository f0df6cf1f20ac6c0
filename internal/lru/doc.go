// Package lru is the tree's one bounded cache: a sharded, byte-bounded,
// least-recently-used map from a comparable key to a shared, immutable
// value. The caller supplies two functions — a hash that routes a key to
// a shard, and the charge an entry makes against the byte budget — and
// gets Get, Put, Clear and Stats.
//
// Each shard owns 1/Nth of the budget, one mutex, one map and one
// intrusive recency list; the map, the list and the byte count change
// together under that mutex (//pegflow:guarded, checked by guardfield).
// Put evicts from the tail of the key's shard until the shard fits; a
// value larger than a shard's whole budget is refused rather than
// emptying the shard for an entry that still would not fit; a second Put
// of a resident key keeps the incumbent, because every user caches a pure
// function of the key or an entry that builds one once. Put returns what
// is resident under the key afterwards — the incumbent, or the value put
// (uncached, if refused) — so racing first callers of a build-once entry
// all get the one that won. Hit, miss and eviction counts are monotone;
// entry and byte counts describe current occupancy.
//
// Users: the serve tier's cell-result cache (internal/server/resultcache),
// the per-seed chunk-runtime cache, the plan cache and the member-DAX
// cache (internal/core), and the two workload memo tables
// (internal/workflow). Every process-wide cache under internal/ is one.
package lru
