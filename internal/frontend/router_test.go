package frontend

import "testing"

func TestReplicaMap(t *testing.T) {
	m := NewReplicaMap(5, 3)
	if r := len(m.Replicas(0)); r != 3 {
		t.Fatalf("r=%d", r)
	}
	got := m.Replicas(4) // wraps around
	want := []int{4, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Replicas(4) = %v", got)
		}
	}
	// The replica factor clamps to [1, n].
	if len(NewReplicaMap(3, 10).Replicas(0)) != 3 {
		t.Fatal("factor not clamped to n")
	}
	if len(NewReplicaMap(3, 0).Replicas(0)) != 1 {
		t.Fatal("factor not clamped to 1")
	}
	// Out-of-range subsets wrap instead of panicking.
	if r := m.Replicas(9); r[0] != 4 {
		t.Fatalf("Replicas(9) = %v", r)
	}
	if r := m.Replicas(-1); r[0] != 4 {
		t.Fatalf("Replicas(-1) = %v", r)
	}
}

func TestLeastLoadedPicksShallowest(t *testing.T) {
	r := NewLeastLoaded()
	depths := map[int]int{0: 5, 1: 2, 2: 9}
	depth := func(c int) int { return depths[c] }
	if c := r.Pick(0, []int{0, 1, 2}, depth); c != 1 {
		t.Fatalf("picked %d", c)
	}
	// Ties break toward the home component (first replica).
	depths[1] = 5
	depths[2] = 5
	if c := r.Pick(0, []int{0, 1, 2}, depth); c != 0 {
		t.Fatalf("tie broke to %d", c)
	}
	if c := r.Pick(3, nil, depth); c != 3 {
		t.Fatalf("empty replicas = %d", c)
	}
}
