package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := NewRNG(7)
	a := root.Split(1)
	b := root.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams share %d outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(9)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(r.Float64())
	}
	if math.Abs(s.Mean()-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", s.Mean())
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(4)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(5)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Norm(3, 2))
	}
	if math.Abs(s.Mean()-3) > 0.05 {
		t.Fatalf("normal mean %v too far from 3", s.Mean())
	}
	if math.Abs(math.Sqrt(s.Var())-2) > 0.05 {
		t.Fatalf("normal std %v too far from 2", math.Sqrt(s.Var()))
	}
}

func TestExpMoments(t *testing.T) {
	r := NewRNG(6)
	var s Summary
	for i := 0; i < 200000; i++ {
		v := r.Exp(4)
		if v < 0 {
			t.Fatalf("exponential sample negative: %v", v)
		}
		s.Add(v)
	}
	if math.Abs(s.Mean()-0.25) > 0.01 {
		t.Fatalf("exp mean %v too far from 0.25", s.Mean())
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal sample %v not positive", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(12)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPermProperty(t *testing.T) {
	r := NewRNG(13)
	f := func(n uint8) bool {
		m := int(n%64) + 1
		p := r.Perm(m)
		if len(p) != m {
			return false
		}
		sum := 0
		for _, v := range p {
			sum += v
		}
		return sum == m*(m-1)/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(14)
	z := NewZipf(r, 1000, 1.0)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[100] {
		t.Fatalf("zipf counts not decreasing: c0=%d c10=%d c100=%d", counts[0], counts[10], counts[100])
	}
	// Rank 0 under s=1 over 1000 items has probability ~1/H(1000) ~ 0.1337.
	frac := float64(counts[0]) / 100000
	if math.Abs(frac-0.1337) > 0.02 {
		t.Fatalf("zipf head frequency %v", frac)
	}
}

func TestZipfBounds(t *testing.T) {
	r := NewRNG(15)
	z := NewZipf(r, 7, 1.2)
	if z.N() != 7 {
		t.Fatalf("N = %d", z.N())
	}
	for i := 0; i < 10000; i++ {
		if v := z.Draw(); v < 0 || v >= 7 {
			t.Fatalf("zipf draw out of range: %d", v)
		}
	}
}
