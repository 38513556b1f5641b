package svd

import (
	"math"

	"accuracytrader/internal/stats"
)

// Config controls training. Zero fields take the listed defaults.
type Config struct {
	Dims   int    // latent dimensions j (default 3, the paper's setting)
	Epochs int    // gradient-descent iterations per dimension (default 100, per paper §4.2)
	Seed   uint64 // factor initialization seed
}

const (
	lr  = 0.01  // SGD step size
	reg = 0.005 // L2 regularization
)

func (c Config) withDefaults() Config {
	if c.Dims <= 0 {
		c.Dims = 3
	}
	if c.Epochs <= 0 {
		c.Epochs = 100
	}
	return c
}

// Model holds the learned factor matrices: U maps each row to its Dims-
// dimensional latent representation, V each column. The row factors are
// what the synopsis builder feeds into the R-tree.
type Model struct {
	U, V [][]float64
	cfg  Config
}

// Train factorizes m into row and column factors, one latent dimension at
// a time with residual caching (the Funk incremental method the paper
// builds on): dimension d is trained on the residuals left by dimensions
// 0..d-1, so each epoch is a single pass over the known cells.
func Train(m *Matrix, cfg Config) *Model {
	cfg = cfg.withDefaults()
	rng := stats.NewRNG(cfg.Seed)
	mo := &Model{
		U:   initFactors(m.Rows(), cfg.Dims, rng),
		V:   initFactors(m.Cols(), cfg.Dims, rng),
		cfg: cfg,
	}
	// residual[r][i] tracks val - prediction from already-trained dims for
	// the i-th known cell of row r.
	residual := make([][]float64, m.Rows())
	for r := 0; r < m.Rows(); r++ {
		row := m.Row(r)
		res := make([]float64, len(row))
		for i, c := range row {
			res[i] = c.Val
		}
		residual[r] = res
	}
	for d := 0; d < cfg.Dims; d++ {
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			for r := 0; r < m.Rows(); r++ {
				u := mo.U[r]
				row := m.Row(r)
				res := residual[r]
				for i, c := range row {
					v := mo.V[c.Col]
					err := res[i] - u[d]*v[d]
					ud := u[d]
					u[d] += lr * (err*v[d] - reg*ud)
					v[d] += lr * (err*ud - reg*v[d])
				}
			}
		}
		// Fold this dimension's contribution into the residuals.
		for r := 0; r < m.Rows(); r++ {
			u := mo.U[r]
			row := m.Row(r)
			res := residual[r]
			for i, c := range row {
				res[i] -= u[d] * mo.V[c.Col][d]
			}
		}
	}
	// Joint refinement: the greedy per-dimension phase deflates each rank
	// in isolation, which on incomplete matrices leaves residual error the
	// dimensions could absorb jointly; a short all-dims SGD pass closes
	// that gap at the same per-epoch cost, for half as many epochs again.
	for e := 0; e < cfg.Epochs/2; e++ {
		for r := 0; r < m.Rows(); r++ {
			u := mo.U[r]
			for _, c := range m.Row(r) {
				v := mo.V[c.Col]
				pred := 0.0
				for d := range u {
					pred += u[d] * v[d]
				}
				err := c.Val - pred
				for d := range u {
					ud := u[d]
					u[d] += lr * (err*v[d] - reg*ud)
					v[d] += lr * (err*ud - reg*v[d])
				}
			}
		}
	}
	return mo
}

func initFactors(n, dims int, rng *stats.RNG) [][]float64 {
	f := make([][]float64, n)
	for i := range f {
		row := make([]float64, dims)
		for d := range row {
			row[d] = 0.1 + 0.02*rng.Norm(0, 1)
		}
		f[i] = row
	}
	return f
}

// Dims returns the latent dimensionality of the model.
func (mo *Model) Dims() int { return mo.cfg.Dims }

// RowFactors returns row r's latent vector (shared slice).
func (mo *Model) RowFactors(r int) []float64 { return mo.U[r] }

// Predict returns the reconstructed value of cell (r, c).
func (mo *Model) Predict(r, c int) float64 {
	s := 0.0
	for d := 0; d < mo.cfg.Dims; d++ {
		s += mo.U[r][d] * mo.V[c][d]
	}
	return s
}

// RMSE returns the root-mean-square reconstruction error over the known
// cells of m (NaN when m is empty).
func (mo *Model) RMSE(m *Matrix) float64 {
	if m.NNZ() == 0 {
		return math.NaN()
	}
	se := 0.0
	for r := 0; r < m.Rows() && r < len(mo.U); r++ {
		for _, c := range m.Row(r) {
			d := c.Val - mo.Predict(r, int(c.Col))
			se += d * d
		}
	}
	return math.Sqrt(se / float64(m.NNZ()))
}

// FoldIn learns a latent vector for a new row against the fixed column
// factors. This is the incremental step that lets synopsis updating avoid
// full retraining: its cost depends only on the new row's cells, not the
// dataset size. Cells in columns the model has never seen (e.g. new
// vocabulary terms appearing after training) carry no latent information
// and are ignored, as in classic SVD fold-in. epochs <= 0 uses the
// training epoch count.
func (mo *Model) FoldIn(cells []Cell, epochs int) []float64 {
	if epochs <= 0 {
		epochs = mo.cfg.Epochs
	}
	known := cells[:0:0]
	for _, c := range cells {
		if int(c.Col) < len(mo.V) {
			known = append(known, c)
		}
	}
	cells = known
	u := make([]float64, mo.cfg.Dims)
	for d := range u {
		u[d] = 0.1
	}
	for d := 0; d < mo.cfg.Dims; d++ {
		for e := 0; e < epochs; e++ {
			for _, c := range cells {
				v := mo.V[c.Col]
				pred := 0.0
				for k := 0; k <= d; k++ {
					pred += u[k] * v[k]
				}
				err := c.Val - pred
				u[d] += lr * (err*v[d] - reg*u[d])
			}
		}
	}
	// Joint refinement over all dims, mirroring Train.
	for e := 0; e < epochs; e++ {
		for _, c := range cells {
			v := mo.V[c.Col]
			pred := 0.0
			for d := range u {
				pred += u[d] * v[d]
			}
			err := c.Val - pred
			for d := range u {
				u[d] += lr * (err*v[d] - reg*u[d])
			}
		}
	}
	return u
}

// Snapshot is the serializable state of a trained Model.
type Snapshot struct {
	U, V [][]float64
	Cfg  Config
}

// Snapshot captures the model state for persistence.
func (mo *Model) Snapshot() Snapshot {
	return Snapshot{U: mo.U, V: mo.V, Cfg: mo.cfg}
}

// FromSnapshot reconstructs a Model from a Snapshot.
func FromSnapshot(s Snapshot) *Model {
	return &Model{U: s.U, V: s.V, cfg: s.Cfg.withDefaults()}
}
