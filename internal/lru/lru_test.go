package lru

import (
	"sync"
	"testing"
)

// intCache charges every entry its value's length plus a fixed 16 bytes.
func intCache(maxBytes int64, shards int) *Cache[int, []byte] {
	return New(maxBytes, shards,
		func(k int) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 },
		func(_ int, v []byte) int64 { return int64(len(v)) + 16 })
}

func TestGetPutStats(t *testing.T) {
	c := intCache(1<<20, DefaultShards)
	if _, ok := c.Get(1); ok {
		t.Fatal("hit on an empty cache")
	}
	v := make([]byte, 100)
	c.Put(1, v)
	got, ok := c.Get(1)
	if !ok || &got[0] != &v[0] {
		t.Fatal("Get did not return the stored value itself")
	}
	if _, ok := c.Get(2); ok {
		t.Error("hit on a key never put")
	}
	if st := c.Stats(); st != (Stats{Hits: 1, Misses: 2, Entries: 1, Bytes: 116, MaxBytes: 1 << 20}) {
		t.Errorf("stats = %+v", st)
	}
}

// Eviction takes the least recently used entry first, where both Get and a
// repeated Put count as use. A single shard pins the order.
func TestEvictionOrderIsLeastRecentlyUsed(t *testing.T) {
	c := intCache(3*116, 1)
	v := make([]byte, 100)
	for k := 0; k < 3; k++ {
		c.Put(k, v)
	}
	c.Get(0)    // order, oldest first: 1 2 0
	c.Put(1, v) // 2 0 1
	c.Put(3, v) // evicts 2
	c.Put(4, v) // evicts 0
	for k, want := range map[int]bool{0: false, 1: true, 2: false, 3: true, 4: true} {
		if _, ok := c.Get(k); ok != want {
			t.Errorf("key %d resident = %v, want %v", k, ok, want)
		}
	}
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 3 || st.Bytes != 3*116 {
		t.Errorf("stats = %+v, want 2 evictions and 3 entries", st)
	}
}

// A large entry evicts as many small ones as it takes, and the resident
// bytes never pass the bound — here over 10^5 keys of mixed sizes on every
// shard.
func TestByteBoundHolds(t *testing.T) {
	const bound = 1 << 20
	c := intCache(bound, DefaultShards)
	vals := [][]byte{make([]byte, 8), make([]byte, 500), make([]byte, 4000), make([]byte, 30000)}
	for k := 0; k < 100000; k++ {
		c.Put(k, vals[k%len(vals)])
		if k%997 == 0 {
			if st := c.Stats(); st.Bytes > bound {
				t.Fatalf("after %d puts: %d bytes resident, bound %d", k+1, st.Bytes, bound)
			}
		}
	}
	st := c.Stats()
	if st.Bytes > bound || st.Bytes < bound/2 || st.Evictions == 0 {
		t.Errorf("after 10^5 puts: %+v, want a mostly full cache inside its bound", st)
	}
	if st.Entries+int64(st.Evictions) != 100000 {
		t.Errorf("%d resident + %d evicted != 100000 put", st.Entries, st.Evictions)
	}
}

// A value larger than a shard's whole budget is refused, rather than
// emptying the shard for an entry that still would not fit.
func TestOversizedValueRefused(t *testing.T) {
	c := intCache(4*256, 4) // 256 bytes a shard
	small := make([]byte, 100)
	for k := 0; k < 4; k++ {
		c.Put(k, small)
	}
	before := c.Stats()
	c.Put(99, make([]byte, 241)) // 257 bytes charged
	if _, ok := c.Get(99); ok {
		t.Error("oversized value was stored")
	}
	after := c.Stats()
	if after.Entries != before.Entries || after.Bytes != before.Bytes || after.Evictions != before.Evictions {
		t.Errorf("refused put changed occupancy: %+v -> %+v", before, after)
	}
	c.Put(98, make([]byte, 240)) // exactly a shard's budget
	if _, ok := c.Get(98); !ok {
		t.Error("a value of exactly the shard budget was refused")
	}
}

// Put returns what is resident under the key after the call: the value it
// stored, the incumbent it kept, or — for a value too large to keep — the
// value itself, uncached.
func TestDuplicatePutKeepsIncumbent(t *testing.T) {
	c := intCache(1<<20, 1)
	first, second := []byte("first"), []byte("second, and longer")
	if got := c.Put(7, first); &got[0] != &first[0] {
		t.Errorf("first Put returned %q, want the value it stored", got)
	}
	if got := c.Put(7, second); &got[0] != &first[0] {
		t.Errorf("second Put returned %q, want the incumbent", got)
	}
	got, _ := c.Get(7)
	if string(got) != "first" {
		t.Errorf("second Put replaced the incumbent: got %q", got)
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != int64(len(first))+16 {
		t.Errorf("duplicate Put changed occupancy: %+v", st)
	}

	huge := make([]byte, 1<<20)
	if got := c.Put(8, huge); len(got) != len(huge) || &got[0] != &huge[0] {
		t.Errorf("refused Put returned a %d-byte value, want the refused value itself", len(got))
	}
	if _, ok := c.Get(8); ok {
		t.Error("a value larger than the budget was cached")
	}
}

func TestClearDropsEntriesKeepsCounters(t *testing.T) {
	c := intCache(1<<20, 4)
	for k := 0; k < 50; k++ {
		c.Put(k, make([]byte, 10))
	}
	c.Get(1)
	c.Clear()
	if _, ok := c.Get(1); ok {
		t.Error("entry survived Clear")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 {
		t.Errorf("stats after Clear = %+v", st)
	}
	c.Put(1, make([]byte, 10))
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 26 {
		t.Errorf("stats after refill = %+v", st)
	}
}

// TestConcurrentGetPut hammers a small cache from many goroutines (run
// under -race): every hit returns the value stored for its key, and the
// bound holds under constant eviction.
func TestConcurrentGetPut(t *testing.T) {
	c := intCache(32<<10, DefaultShards)
	const goroutines, keys = 16, 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 2000; iter++ {
				k := (g*31 + iter*7) % keys
				if got, ok := c.Get(k); ok {
					if len(got) != 50+k || got[0] != byte(k) {
						t.Errorf("key %d: got a %d-byte value tagged %d", k, len(got), got[0])
						return
					}
					continue
				}
				v := make([]byte, 50+k)
				v[0] = byte(k)
				c.Put(k, v)
				if iter%500 == 0 {
					c.Clear()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Errorf("cache exceeded its byte bound: %+v", st)
	}
	if st.Hits == 0 || st.Misses == 0 || st.Evictions == 0 {
		t.Errorf("hammer produced no cache traffic: %+v", st)
	}
}

// TestAllocsGetPut (run by CI as `go test -run 'TestAllocs'`): a hit, a miss
// and a Put of a resident key allocate nothing; a new entry is one object.
func TestAllocsGetPut(t *testing.T) {
	c := intCache(1<<30, DefaultShards)
	v := make([]byte, 64)
	c.Put(1, v)
	if got := testing.AllocsPerRun(100, func() { c.Get(1); c.Get(2); c.Put(1, v) }); got != 0 {
		t.Errorf("hit + miss + duplicate Put allocate %v times, want 0", got)
	}
	k := 10
	// The map's own growth is amortized over the insertions it serves.
	if got := testing.AllocsPerRun(5000, func() { k++; c.Put(k, v) }); got > 1.5 {
		t.Errorf("inserting an entry allocates %v times, want the entry (and the map's amortized growth)", got)
	}
}
