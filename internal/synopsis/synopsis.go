package synopsis

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"time"

	"accuracytrader/internal/rtree"
	"accuracytrader/internal/svd"
)

// FeatureSource exposes a data subset as sparse numeric feature vectors —
// the input to step 1 (dimensionality reduction). For a rating matrix the
// features are item ratings; for a web-page collection, term counts.
type FeatureSource interface {
	NumPoints() int
	NumFeatures() int
	// Features returns the sparse feature vector of point i.
	Features(i int) []svd.Cell
}

// Config controls synopsis creation.
type Config struct {
	// SVD configures step-1 dimensionality reduction.
	SVD svd.Config
	// TreeMin/TreeMax are the R-tree node capacities (defaults: TreeMax
	// 8, TreeMin TreeMax/4, so 2).
	TreeMin, TreeMax int
	// CompressionRatio is the target ratio of original points per
	// aggregated point; the paper suggests ~100x. Default 100.
	CompressionRatio int
	// FoldInEpochs bounds the gradient steps when folding changed or added
	// points into the latent space during updates (default: SVD.Epochs).
	FoldInEpochs int
}

func (c Config) withDefaults() Config {
	if c.TreeMax <= 0 {
		// A lower fan-out than rtree.DefaultMax keeps per-level node
		// counts fine-grained, so the cut can approach the requested
		// synopsis size instead of jumping 16x between levels.
		c.TreeMax = 8
	}
	if c.TreeMin <= 0 {
		c.TreeMin = c.TreeMax / 4
	}
	if c.CompressionRatio <= 0 {
		c.CompressionRatio = 100
	}
	return c
}

// Group is one entry of the index file: the original data points
// aggregated into one synopsis point. The ID is stable across incremental
// updates for groups whose membership did not change, so applications can
// cache the (expensive) aggregated information keyed by ID.
type Group struct {
	ID      int64
	Members []int
}

// Aggregate performs step 3 of synopsis creation (information
// aggregation) for every group, in parallel across CPU cores — the
// in-process substitute for the paper's Spark-based distributed
// aggregation (§3.1), which exists for the same reason: step 3 is the
// most computation-expensive creation step. A group present in prev (by
// ID) reuses its cached aggregate; every other group is aggregated by
// one, which must be safe to call concurrently.
func Aggregate[A any](groups []Group, prev map[int64]A, one func(Group) A) []A {
	aggs := make([]A, len(groups))
	var todo []int
	for i, g := range groups {
		if a, ok := prev[g.ID]; ok {
			aggs[i] = a
			continue
		}
		todo = append(todo, i)
	}
	workers := min(runtime.GOMAXPROCS(0), len(todo))
	if workers <= 1 {
		for _, i := range todo {
			aggs[i] = one(groups[i])
		}
		return aggs
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				aggs[i] = one(groups[i])
			}
		}()
	}
	for _, i := range todo {
		next <- i
	}
	close(next)
	wg.Wait()
	return aggs
}

// Timings records how long the creation steps took (the paper's §4.2
// "overheads of synopsis creation" evaluation; step 3 is timed by the
// application, which owns aggregation).
type Timings struct {
	SVDMs  float64 // step 1: dimensionality reduction
	TreeMs float64 // step 2: R-tree construction and cut selection
}

// Synopsis is the product of offline synopsis management for one data
// subset.
type Synopsis struct {
	cfg     Config
	model   *svd.Model
	tree    *rtree.Tree
	latent  [][]float64 // latent coordinates per original point (dead points keep their last coords)
	alive   []bool
	groups  []Group
	nextID  int64
	timings Timings
}

// Timings returns the creation-step durations.
func (s *Synopsis) Timings() Timings { return s.timings }

// Build creates the synopsis for a data subset: SVD reduction (step 1),
// R-tree construction over the latent points (step 2), and selection of
// the cut depth whose node count meets the compression ratio. Aggregation
// (step 3) is performed by the application over the returned groups.
func Build(src FeatureSource, cfg Config) (*Synopsis, error) {
	cfg = cfg.withDefaults()
	n := src.NumPoints()
	if n == 0 {
		return nil, fmt.Errorf("synopsis: empty data subset")
	}
	// Step 1: dimensionality reduction.
	t0 := time.Now()
	m := svd.NewMatrix(n, src.NumFeatures())
	for i := 0; i < n; i++ {
		for _, c := range src.Features(i) {
			m.Set(i, int(c.Col), c.Val)
		}
	}
	model := svd.Train(m, cfg.SVD)
	svdMs := float64(time.Since(t0)) / float64(time.Millisecond)
	latent := make([][]float64, n)
	items := make([]rtree.Item, n)
	for i := 0; i < n; i++ {
		latent[i] = model.RowFactors(i)
		items[i] = rtree.Item{Point: latent[i], ID: i}
	}
	// Step 2: organize similar points with an R-tree.
	t1 := time.Now()
	tree := rtree.Bulk(model.Dims(), cfg.TreeMin, cfg.TreeMax, items)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	s := &Synopsis{
		cfg:    cfg,
		model:  model,
		tree:   tree,
		latent: latent,
		alive:  alive,
	}
	s.recomputeGroups(nil)
	s.timings = Timings{
		SVDMs:  svdMs,
		TreeMs: float64(time.Since(t1)) / float64(time.Millisecond),
	}
	return s, nil
}

// Groups returns the current index file (shared slice; do not modify).
func (s *Synopsis) Groups() []Group { return s.groups }

// NumGroups returns the number of aggregated data points.
func (s *Synopsis) NumGroups() int { return len(s.groups) }

// NumPoints returns the number of live original data points.
func (s *Synopsis) NumPoints() int { return s.tree.Len() }

// Latent returns point i's latent coordinates (shared slice).
func (s *Synopsis) Latent(i int) []float64 { return s.latent[i] }

// MeanGroupSize returns the average number of original points per group —
// the "each aggregated user corresponds to an average of 133.01 original
// users" statistic the paper reports.
func (s *Synopsis) MeanGroupSize() float64 {
	if len(s.groups) == 0 {
		return 0
	}
	total := 0
	for _, g := range s.groups {
		total += len(g.Members)
	}
	return float64(total) / float64(len(s.groups))
}

// Kind discriminates input-data changes for Update.
type Kind int

// The change kinds of paper §2.2: new data points arriving, existing
// points changing, plus deletion for completeness.
const (
	Add Kind = iota
	Modify
	Delete
)

// Change describes one input-data change.
type Change struct {
	Kind  Kind
	Point int        // target point for Modify/Delete; ignored for Add
	Cells []svd.Cell // new feature vector for Add/Modify
}

// UpdateStats reports what an Update touched; the experiments use it to
// show that incremental updating re-aggregates only affected groups.
type UpdateStats struct {
	Added              int
	Modified           int
	Deleted            int
	GroupsKept         int // groups whose cached aggregates stay valid
	GroupsReaggregated int // groups the application must re-aggregate
	NewPointIDs        []int
}

// Update applies input-data changes incrementally: fold changed/new points
// into the latent space, fix up the R-tree leaves, then recompute the
// level cut, preserving the IDs of groups whose membership is unchanged.
func (s *Synopsis) Update(changes []Change) (UpdateStats, error) {
	var st UpdateStats
	for _, ch := range changes {
		switch ch.Kind {
		case Add:
			u := s.model.FoldIn(ch.Cells, s.cfg.FoldInEpochs)
			id := len(s.latent)
			s.latent = append(s.latent, u)
			s.alive = append(s.alive, true)
			s.tree.Insert(u, id)
			st.Added++
			st.NewPointIDs = append(st.NewPointIDs, id)
		case Modify:
			if err := s.checkLive(ch.Point); err != nil {
				return st, err
			}
			if !s.tree.Delete(s.latent[ch.Point], ch.Point) {
				return st, fmt.Errorf("synopsis: point %d not in tree", ch.Point)
			}
			u := s.model.FoldIn(ch.Cells, s.cfg.FoldInEpochs)
			s.latent[ch.Point] = u
			s.tree.Insert(u, ch.Point)
			st.Modified++
		case Delete:
			if err := s.checkLive(ch.Point); err != nil {
				return st, err
			}
			if !s.tree.Delete(s.latent[ch.Point], ch.Point) {
				return st, fmt.Errorf("synopsis: point %d not in tree", ch.Point)
			}
			s.alive[ch.Point] = false
			st.Deleted++
		default:
			return st, fmt.Errorf("synopsis: unknown change kind %d", ch.Kind)
		}
	}
	prev := make(map[uint64]int64, len(s.groups))
	for _, g := range s.groups {
		prev[memberHash(g.Members)] = g.ID
	}
	kept := s.recomputeGroups(prev)
	st.GroupsKept = kept
	st.GroupsReaggregated = len(s.groups) - kept
	return st, nil
}

func (s *Synopsis) checkLive(p int) error {
	if p < 0 || p >= len(s.alive) || !s.alive[p] {
		return fmt.Errorf("synopsis: point %d does not exist", p)
	}
	return nil
}

// recomputeGroups rebuilds the node cut. prev maps member-set hashes to
// previous group IDs; matching groups keep their ID. Returns how many
// groups were kept.
func (s *Synopsis) recomputeGroups(prev map[uint64]int64) int {
	if s.tree.Len() == 0 {
		s.groups = nil
		return 0
	}
	maxAgg := s.tree.Len() / s.cfg.CompressionRatio
	if maxAgg < 1 {
		maxAgg = 1
	}
	cuts := s.tree.CutToTarget(maxAgg)
	groups := make([]Group, 0, len(cuts))
	kept := 0
	for _, cut := range cuts {
		members := append([]int(nil), cut.Members...)
		sort.Ints(members)
		h := memberHash(members)
		if id, ok := prev[h]; ok {
			groups = append(groups, Group{ID: id, Members: members})
			kept++
			continue
		}
		groups = append(groups, Group{ID: s.nextID, Members: members})
		s.nextID++
	}
	// Deterministic ordering for downstream consumers.
	sort.Slice(groups, func(i, j int) bool { return groups[i].ID < groups[j].ID })
	s.groups = groups
	return kept
}

// memberHash hashes a sorted member list (FNV-1a over the varint bytes).
func memberHash(members []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, m := range members {
		v := uint64(m)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// CheckInvariants verifies that the groups partition exactly the live
// points and that the underlying tree is healthy.
func (s *Synopsis) CheckInvariants() error {
	if err := s.tree.CheckInvariants(); err != nil {
		return err
	}
	seen := make(map[int]bool)
	for _, g := range s.groups {
		for _, m := range g.Members {
			if seen[m] {
				return fmt.Errorf("synopsis: point %d in two groups", m)
			}
			if m < 0 || m >= len(s.alive) || !s.alive[m] {
				return fmt.Errorf("synopsis: group contains dead point %d", m)
			}
			seen[m] = true
		}
	}
	live := 0
	for _, a := range s.alive {
		if a {
			live++
		}
	}
	if len(seen) != live {
		return fmt.Errorf("synopsis: groups cover %d of %d live points", len(seen), live)
	}
	return nil
}
