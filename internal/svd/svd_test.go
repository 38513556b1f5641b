package svd

import (
	"math"
	"testing"
	"testing/quick"

	"accuracytrader/internal/stats"
)

// syntheticMatrix builds a rows x cols matrix of rank `rank` plus noise,
// with a density fraction of cells observed.
func syntheticMatrix(rng *stats.RNG, rows, cols, rank int, noise, density float64) (*Matrix, [][]float64) {
	uTrue := make([][]float64, rows)
	vTrue := make([][]float64, cols)
	for i := range uTrue {
		u := make([]float64, rank)
		for d := range u {
			u[d] = rng.Norm(0, 1)
		}
		uTrue[i] = u
	}
	for i := range vTrue {
		v := make([]float64, rank)
		for d := range v {
			v[d] = rng.Norm(0, 1)
		}
		vTrue[i] = v
	}
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				m.Set(r, c, dot(uTrue[r], vTrue[c])+rng.Norm(0, noise))
			}
		}
	}
	return m, uTrue
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 || m.NNZ() != 0 {
		t.Fatal("fresh matrix wrong shape")
	}
	m.Set(0, 1, 5)
	m.Set(0, 1, 7) // overwrite must not grow nnz
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if v, ok := m.Get(0, 1); !ok || v != 7 {
		t.Fatalf("Get = %v,%v", v, ok)
	}
	if _, ok := m.Get(1, 1); ok {
		t.Fatal("Get of unset cell should miss")
	}
}

func TestMatrixPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewMatrix(-1, 2) },
		func() { NewMatrix(2, 0) },
		func() { NewMatrix(2, 2).Set(2, 0, 1) },
		func() { NewMatrix(2, 2).Set(0, 5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestTrainReducesRMSE(t *testing.T) {
	rng := stats.NewRNG(1)
	m, _ := syntheticMatrix(rng, 120, 60, 3, 0.05, 0.3)
	base := Train(m, Config{Dims: 3, Epochs: 1, Seed: 2})
	full := Train(m, Config{Dims: 3, Epochs: 100, Seed: 2})
	if full.RMSE(m) >= base.RMSE(m) {
		t.Fatalf("training did not improve RMSE: %v vs %v", full.RMSE(m), base.RMSE(m))
	}
	if full.RMSE(m) > 0.15 {
		t.Fatalf("rank-3 matrix should reconstruct well, RMSE=%v", full.RMSE(m))
	}
}

func TestTrainDeterministic(t *testing.T) {
	rng := stats.NewRNG(3)
	m, _ := syntheticMatrix(rng, 40, 20, 2, 0.1, 0.4)
	a := Train(m, Config{Dims: 2, Epochs: 10, Seed: 7})
	b := Train(m, Config{Dims: 2, Epochs: 10, Seed: 7})
	for r := range a.U {
		for d := range a.U[r] {
			if a.U[r][d] != b.U[r][d] {
				t.Fatal("training is not deterministic for equal seeds")
			}
		}
	}
}

func TestDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Dims != 3 || cfg.Epochs != 100 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestSimilarRowsStayClose(t *testing.T) {
	// The property the synopsis relies on (paper Fig. 2): rows with similar
	// observed attributes map to nearby latent points.
	rng := stats.NewRNG(4)
	rows, cols := 90, 40
	m := NewMatrix(rows, cols)
	// Three blocks of rows, each sharing a distinct column profile.
	profiles := make([][]float64, 3)
	for p := range profiles {
		prof := make([]float64, cols)
		for c := range prof {
			prof[c] = rng.Norm(0, 1)
		}
		profiles[p] = prof
	}
	for r := 0; r < rows; r++ {
		prof := profiles[r/(rows/3)]
		for c := 0; c < cols; c++ {
			if rng.Float64() < 0.5 {
				m.Set(r, c, prof[c]+rng.Norm(0, 0.05))
			}
		}
	}
	mo := Train(m, Config{Dims: 3, Epochs: 40, Seed: 5})
	// Mean intra-block distance must be well below inter-block distance.
	var intra, inter stats.Summary
	for a := 0; a < rows; a++ {
		for b := a + 1; b < rows; b++ {
			d := dist(mo.RowFactors(a), mo.RowFactors(b))
			if a/(rows/3) == b/(rows/3) {
				intra.Add(d)
			} else {
				inter.Add(d)
			}
		}
	}
	if intra.Mean()*2 > inter.Mean() {
		t.Fatalf("latent space does not separate blocks: intra=%v inter=%v", intra.Mean(), inter.Mean())
	}
}

func TestFoldInApproximatesTraining(t *testing.T) {
	rng := stats.NewRNG(6)
	m, _ := syntheticMatrix(rng, 100, 50, 3, 0.05, 0.4)
	mo := Train(m, Config{Dims: 3, Epochs: 50, Seed: 6})
	// Fold row 0's cells back in: the folded vector must predict row 0's
	// cells about as well as the trained vector does.
	row := m.Row(0)
	folded := mo.FoldIn(row, 50)
	var seTrained, seFolded float64
	for _, c := range row {
		pt := c.Val - mo.Predict(0, int(c.Col))
		pf := c.Val - dot(folded, mo.V[c.Col])
		seTrained += pt * pt
		seFolded += pf * pf
	}
	rt := math.Sqrt(seTrained / float64(len(row)))
	rf := math.Sqrt(seFolded / float64(len(row)))
	if rf > rt*2+0.1 {
		t.Fatalf("fold-in much worse than training: %v vs %v", rf, rt)
	}
}

func TestPredictUsesAllDims(t *testing.T) {
	mo := &Model{
		U:   [][]float64{{1, 2}},
		V:   [][]float64{{3, 4}},
		cfg: Config{Dims: 2}.withDefaults(),
	}
	mo.cfg.Dims = 2
	if got := mo.Predict(0, 0); got != 11 {
		t.Fatalf("Predict = %v", got)
	}
}

func TestRMSEEmptyMatrix(t *testing.T) {
	m := NewMatrix(2, 2)
	mo := Train(m, Config{Dims: 2, Epochs: 1})
	if !math.IsNaN(mo.RMSE(m)) {
		t.Fatal("RMSE of empty matrix should be NaN")
	}
}

func TestFoldInBoundedProperty(t *testing.T) {
	// Fold-in on bounded data must produce finite factors (no divergence),
	// for arbitrary small cell sets.
	rng := stats.NewRNG(8)
	m, _ := syntheticMatrix(rng, 60, 30, 2, 0.1, 0.5)
	mo := Train(m, Config{Dims: 2, Epochs: 20, Seed: 8})
	f := func(seed uint32, n uint8) bool {
		r := rng.Split(uint64(seed))
		k := int(n%10) + 1
		cells := make([]Cell, k)
		for i := range cells {
			cells[i] = Cell{Col: int32(r.Intn(30)), Val: r.Norm(0, 2)}
		}
		u := mo.FoldIn(cells, 20)
		for _, v := range u {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFoldInIgnoresUnseenColumns(t *testing.T) {
	// Regression: a document arriving after training may contain brand-new
	// vocabulary; those feature columns have no trained factors and must
	// be skipped, not crash.
	rng := stats.NewRNG(20)
	m, _ := syntheticMatrix(rng, 40, 20, 2, 0.05, 0.5)
	mo := Train(m, Config{Dims: 2, Epochs: 20, Seed: 20})
	cells := []Cell{{Col: 5, Val: 1.5}, {Col: 999, Val: 3}, {Col: 10, Val: -0.5}}
	u := mo.FoldIn(cells, 20)
	for _, v := range u {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("fold-in with unseen columns produced %v", u)
		}
	}
	// The unseen column must not change the outcome at all.
	known := []Cell{{Col: 5, Val: 1.5}, {Col: 10, Val: -0.5}}
	u2 := mo.FoldIn(known, 20)
	for d := range u {
		if u[d] != u2[d] {
			t.Fatalf("unseen column affected factors: %v vs %v", u, u2)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := stats.NewRNG(21)
	m, _ := syntheticMatrix(rng, 30, 15, 2, 0.1, 0.5)
	mo := Train(m, Config{Dims: 2, Epochs: 15, Seed: 21})
	back := FromSnapshot(mo.Snapshot())
	if back.Dims() != mo.Dims() {
		t.Fatal("dims changed")
	}
	for r := 0; r < m.Rows(); r++ {
		for _, c := range m.Row(r) {
			if back.Predict(r, int(c.Col)) != mo.Predict(r, int(c.Col)) {
				t.Fatal("predictions changed across snapshot")
			}
		}
	}
	// Fold-in must keep working on the restored model.
	u := back.FoldIn(m.Row(0), 10)
	if len(u) != 2 {
		t.Fatalf("fold-in after restore: %v", u)
	}
}

// dot returns the inner product of two equal-length dense vectors.
func dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("svd: dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// dist returns the Euclidean distance between a and b.
func dist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("svd: dist length mismatch")
	}
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
