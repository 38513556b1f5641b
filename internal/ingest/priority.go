package ingest

// Priority returns the deterministic sampling priority of one global
// row id: the splitmix64 finalizer over (seed, row). For a fixed seed
// the priorities are i.i.d. uniform across rows, so ordering a stratum
// by (priority, row) is a uniform random permutation of its rows and
// every length-k prefix is a uniform sample without replacement — the
// bottom-k (priority sampling) form of reservoir sampling. Because the
// priority depends only on (seed, row), merging newly appended rows
// into an already-ordered stratum preserves exactly the order a from-
// scratch rebuild would produce, which is what makes live compaction
// bit-identical to a frozen rebuild.
func Priority(seed uint64, row int32) uint64 {
	z := seed + (uint64(row)+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// before orders rows by (priority, row) — the total order every
// stratum reservoir maintains — given their hashed priorities.
func before(pa uint64, a int32, pb uint64, b int32) bool {
	return pa < pb || (pa == pb && a < b)
}
