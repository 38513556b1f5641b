package rescache

import "testing"

// BenchmarkCacheHit is the hot hit path: one resident key served
// repeatedly. TestHitPathZeroAlloc guards its 0 allocs/op contract.
func BenchmarkCacheHit(b *testing.B) {
	c, err := New(Config{Capacity: 4096})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.Store(1, nil, "value", 0.9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := c.Get(1, 0.5); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkCacheHitParallel measures the cache's one lock under
// contention: many goroutines hitting a spread of resident keys.
func BenchmarkCacheHitParallel(b *testing.B) {
	c, err := New(Config{Capacity: 4096})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const keys = 1024
	for k := uint64(0); k < keys; k++ {
		c.Store(k, nil, k, 0.9)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		k := uint64(0)
		for pb.Next() {
			k = (k + 0x9e3779b97f4a7c15) % keys
			if _, _, ok := c.Get(k, 0.5); !ok {
				b.Fatal("miss")
			}
		}
	})
}

// BenchmarkCacheMiss is the overload fast-exit: absent key.
func BenchmarkCacheMiss(b *testing.B) {
	c, err := New(Config{Capacity: 4096})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(uint64(i)|1<<63, 0.5)
	}
}
