// Package resultcache is the content-addressed cell-result cache behind
// the serve tier. Scenario documents are SHA-256 fingerprinted and their
// cell grids are deterministic, so a finished NDJSON cell line is fully
// determined by (document fingerprint, cell index): the cache stores
// exactly that mapping, bounded by total bytes with least-recently-used
// eviction, and a hit lets the server (or any scenario.Run caller) skip
// planning and simulation entirely while emitting byte-identical output.
//
// The package is a thin wrapper over internal/lru, the tree's one
// sharded byte-bounded LRU: it supplies the key, the hash that spreads one
// hot document's cells over every shard's lock, and the charge an entry
// makes against the budget; shards, recency lists, eviction and the
// hit/miss/eviction/byte counters (republished by the serve tier at
// /v1/healthz) are lru's.
package resultcache
