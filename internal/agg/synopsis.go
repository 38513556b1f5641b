package agg

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"slices"

	"accuracytrader/internal/stats"
)

// Config controls offline synopsis creation for the aggregation
// application.
type Config struct {
	// Rates are the ladder's row budgets in (0,1], coarse to fine, each
	// a fraction of the shard: level l samples as many rows as sampling
	// every stratum at Rates[l] (floored at MinSample) would, but spends
	// them capped — every stratum gets the same number of rows, up to
	// its size (see ladderLens). They are sorted ascending and
	// deduplicated. Default: 0.02, 0.05, 0.12, 0.30.
	Rates []float64
	// MinSample is the per-stratum sample-size floor (default 4): even
	// the rarest group key keeps enough sampled rows for a CLT estimate
	// — the stratified-sampling guarantee that uniform sampling lacks.
	MinSample int
	// Seed drives the per-stratum shuffles; creation is deterministic
	// for a given (table, config).
	Seed uint64
}

func (c Config) withDefaults() Config {
	if len(c.Rates) == 0 {
		c.Rates = []float64{0.02, 0.05, 0.12, 0.30}
	}
	rates := make([]float64, 0, len(c.Rates))
	for _, r := range c.Rates {
		if r > 0 && r <= 1 {
			rates = append(rates, r)
		}
	}
	slices.Sort(rates)
	rates = slices.Compact(rates)
	c.Rates = rates
	if c.MinSample < 2 {
		c.MinSample = 4
	}
	return c
}

// Synopsis is the offline product for one fact-table shard: the strata
// (index file: one member set per group key) and the multi-resolution
// sample ladder. Samples are nested — each stratum's rows are shuffled
// once and level l reads a prefix whose length is the level's capped
// share of its row budget — so a finer level extends a coarser one and
// the ladder costs one permutation, not one copy per level.
type Synopsis struct {
	cfg  Config
	rows []int32   // row ids, stratum-major, shuffled within each stratum
	off  []int32   // stratum s owns rows[off[s]:off[s+1]]; len = strata+1
	lens [][]int32 // lens[level][s] = sample length of stratum s at level
}

// BuildSynopsis creates the stratified-sample ladder for a table. It is
// the aggregation application's offline synopsis-management step: the
// strata play the role of the R-tree groups (grouping rows that are
// "similar" in the only dimension GROUP-BY queries care about — their
// key), and the sample prefixes play the role of aggregated points.
func BuildSynopsis(t *Table, cfg Config) (*Synopsis, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Rates) == 0 {
		return nil, fmt.Errorf("agg: no valid sampling rates")
	}
	if t.NumRows() == 0 {
		return nil, fmt.Errorf("agg: empty fact table")
	}
	nStrata := t.NumKeys()
	// Counting sort of row ids into stratum-major CSR order.
	counts := make([]int32, nStrata)
	for _, k := range t.keys {
		counts[k]++
	}
	off := make([]int32, nStrata+1)
	for s := 0; s < nStrata; s++ {
		off[s+1] = off[s] + counts[s]
	}
	next := append([]int32(nil), off[:nStrata]...)
	rows := make([]int32, t.NumRows())
	for i, k := range t.keys {
		rows[next[k]] = int32(i)
		next[k]++
	}
	syn := &Synopsis{cfg: cfg, rows: rows, off: off}
	rng := stats.NewRNG(cfg.Seed ^ 0xa66a66)
	for s := 0; s < nStrata; s++ {
		part := rows[off[s]:off[s+1]]
		srng := rng.Split(uint64(s) + 1)
		srng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
	}
	syn.lens = ladderLens(off, cfg.Rates, cfg.MinSample)
	return syn, nil
}

// ladderLens returns every ladder level's per-stratum sample lengths
// for the strata with offsets off (stratum s holds off[s+1]−off[s]
// rows): the capped ladder. Level l spends the row total a proportional
// ladder would, T = Σ clamp(⌈rate_l·N_s⌉, minSample, N_s), but splits
// it evenly: stratum s gets min(N_s, K), K the largest cap with
// Σ min(N_s, K) ≤ T, and the T − Σ min(N_s, K) rows left over (fewer
// than the strata still larger than K) go one each to those strata in
// stratum order. K ≥ minSample, because T covers every stratum's
// floor. A finer level has a K at least as large, and at an equal K at
// least as many leftover rows, so every level extends the one below.
func ladderLens(off []int32, rates []float64, minSample int) [][]int32 {
	nStrata := len(off) - 1
	var maxN int32
	for s := 0; s < nStrata; s++ {
		maxN = max(maxN, off[s+1]-off[s])
	}
	spent := func(k int32) (rows int64) {
		for s := 0; s < nStrata; s++ {
			rows += int64(min(off[s+1]-off[s], k))
		}
		return rows
	}
	lens := make([][]int32, len(rates))
	for l, rate := range rates {
		var total int64
		for s := 0; s < nStrata; s++ {
			N := off[s+1] - off[s]
			total += int64(min(max(int32(math.Ceil(rate*float64(N))), int32(minSample)), N))
		}
		// The largest K with spent(K) ≤ total: spent is non-decreasing
		// and spent(0) = 0.
		lo, hi := int32(0), maxN
		for lo < hi {
			mid := lo + (hi-lo+1)/2
			if spent(mid) <= total {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		left := total - spent(lo)
		lv := make([]int32, nStrata)
		for s := 0; s < nStrata; s++ {
			N := off[s+1] - off[s]
			lv[s] = min(N, lo)
			if N > lo && left > 0 {
				lv[s]++
				left--
			}
		}
		lens[l] = lv
	}
	return lens
}

// Levels returns the ladder depth (number of sampling rates).
func (s *Synopsis) Levels() int { return len(s.lens) }

// Rates returns the ladder's sampling rates, coarse to fine (shared
// slice; do not modify).
func (s *Synopsis) Rates() []float64 { return s.cfg.Rates }

// NumStrata returns the number of strata (= the key domain size).
func (s *Synopsis) NumStrata() int { return len(s.off) - 1 }

// StratumSize returns the number of rows in stratum g.
func (s *Synopsis) StratumSize(g int) int { return int(s.off[g+1] - s.off[g]) }

// stratumRows returns stratum g's row ids in shuffled order.
func (s *Synopsis) stratumRows(g int) []int32 { return s.rows[s.off[g]:s.off[g+1]] }

// SampleLen returns the sample size of stratum g at a ladder level.
func (s *Synopsis) SampleLen(level, g int) int { return int(s.lens[level][g]) }

// sample returns stratum g's sampled row ids at a ladder level.
func (s *Synopsis) sample(level, g int) []int32 {
	return s.rows[s.off[g] : s.off[g]+s.lens[level][g]]
}

// SampleUnits returns the total sampled rows at a ladder level — the
// data volume a synopsis-only answer scans, and the level's work units
// for the cluster simulator's cost model.
func (s *Synopsis) SampleUnits(level int) int {
	n := 0
	for _, l := range s.lens[level] {
		n += int(l)
	}
	return n
}

// clampLevel folds an out-of-range ladder level into [0, Levels).
func (s *Synopsis) clampLevel(level int) int {
	if level < 0 {
		return 0
	}
	if level >= len(s.lens) {
		return len(s.lens) - 1
	}
	return level
}

// image is the gob wire format of a Synopsis (see synopsis.Save for the
// persistence rationale: the stored strata and samples are the starting
// point for serving without re-stratifying).
type image struct {
	Cfg  Config
	Rows []int32
	Off  []int32
	Lens [][]int32
}

// Save writes the synopsis (strata index file + sample ladder) to w.
func (s *Synopsis) Save(w io.Writer) error {
	img := image{Cfg: s.cfg, Rows: s.rows, Off: s.off, Lens: s.lens}
	if err := gob.NewEncoder(w).Encode(img); err != nil {
		return fmt.Errorf("agg: save: %w", err)
	}
	return nil
}

// LoadSynopsis reads a synopsis previously written with Save.
func LoadSynopsis(r io.Reader) (*Synopsis, error) {
	var img image
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("agg: load: %w", err)
	}
	s := &Synopsis{cfg: img.Cfg, rows: img.Rows, off: img.Off, lens: img.Lens}
	if err := s.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("agg: load: corrupt image: %w", err)
	}
	return s, nil
}

// CheckInvariants verifies the strata partition the row space and every
// sample is a within-stratum prefix.
func (s *Synopsis) CheckInvariants() error {
	if len(s.off) < 2 || s.off[0] != 0 || int(s.off[len(s.off)-1]) != len(s.rows) {
		return fmt.Errorf("agg: bad stratum offsets")
	}
	if len(s.lens) == 0 || len(s.lens) != len(s.cfg.Rates) {
		return fmt.Errorf("agg: %d ladder levels for %d rates", len(s.lens), len(s.cfg.Rates))
	}
	seen := make([]bool, len(s.rows))
	for _, r := range s.rows {
		if r < 0 || int(r) >= len(s.rows) || seen[r] {
			return fmt.Errorf("agg: row %d missing or duplicated in strata", r)
		}
		seen[r] = true
	}
	for l, lv := range s.lens {
		if len(lv) != s.NumStrata() {
			return fmt.Errorf("agg: level %d has %d strata lengths, want %d", l, len(lv), s.NumStrata())
		}
		for g, n := range lv {
			N := s.off[g+1] - s.off[g]
			if n < 0 || n > N {
				return fmt.Errorf("agg: level %d stratum %d sample %d out of range", l, g, n)
			}
			// The estimator floor stratumEstimate's variance math relies
			// on: a non-empty stratum is sampled, and a partial sample has
			// n >= 2 so the (n-1)-denominator sample variance is defined.
			if N > 0 && n == 0 {
				return fmt.Errorf("agg: level %d stratum %d has no sample for %d rows", l, g, N)
			}
			if n < 2 && n < N {
				return fmt.Errorf("agg: level %d stratum %d partial sample %d below floor 2", l, g, n)
			}
			if l > 0 && n < s.lens[l-1][g] {
				return fmt.Errorf("agg: level %d stratum %d sample shrinks vs level %d", l, g, l-1)
			}
		}
	}
	return nil
}

// Component is one parallel service component of the aggregation
// application: its fact-table shard plus the stratified-sample
// synopsis, mirroring cf.Component and textindex.Component.
type Component struct {
	T   *Table
	Syn *Synopsis
}

// BuildComponent creates the component's synopsis (offline module).
func BuildComponent(t *Table, cfg Config) (*Component, error) {
	syn, err := BuildSynopsis(t, cfg)
	if err != nil {
		return nil, err
	}
	return &Component{T: t, Syn: syn}, nil
}

// SynopsisSize returns the sampled rows scanned by a finest-level
// synopsis answer — the data volume the cost model charges for
// processing the synopsis.
func (c *Component) SynopsisSize() int { return c.Syn.SampleUnits(c.Syn.Levels() - 1) }
