package core

// SetChunkCacheBytes replaces the chunk-seconds cache with an empty one
// bounded by maxBytes and returns the call that puts the original back. It
// exists for tests outside the package that need every lookup to evict; no
// non-test code can reach it. Not safe to call while cells are running.
func SetChunkCacheBytes(maxBytes int64) (restore func()) {
	old := chunkCache
	chunkCache = newChunkCache(maxBytes)
	return func() { chunkCache = old }
}
