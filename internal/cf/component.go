package cf

import (
	"slices"

	"accuracytrader/internal/synopsis"
)

// AggregatedUser is one synopsis point: the paper's step-3 aggregation for
// numeric data. Its rating on item i is the mean rating of the member
// users who rated i.
type AggregatedUser struct {
	GroupID int64
	Ratings []Rating // sorted by item
	Mean    float64  // mean of its rating scores
	Members []int
}

// AggregateGroup builds the aggregated user for one group's member set
// (synopsis.Aggregate's per-group step for CF data).
func (m *Matrix) AggregateGroup(g synopsis.Group) AggregatedUser {
	sums := make(map[int32]float64)
	counts := make(map[int32]int)
	for _, u := range g.Members {
		for _, r := range m.Ratings(u) {
			sums[r.Item] += r.Score
			counts[r.Item]++
		}
	}
	ag := AggregatedUser{GroupID: g.ID, Members: g.Members}
	if len(sums) > 0 {
		ag.Ratings = make([]Rating, 0, len(sums))
	}
	for item, s := range sums {
		ag.Ratings = append(ag.Ratings, Rating{Item: item, Score: s / float64(counts[item])})
	}
	sortRatings(ag.Ratings)
	// Sum after sorting: map iteration order must not leak into the mean
	// (floating-point addition is not associative), or aggregation would
	// not be bit-for-bit deterministic.
	total := 0.0
	for _, r := range ag.Ratings {
		total += r.Score
	}
	if len(ag.Ratings) > 0 {
		ag.Mean = total / float64(len(ag.Ratings))
	}
	return ag
}

// sortRatings orders ratings by item. Where items are unique (an
// aggregate, an honest user) the comparator is a total order; duplicate
// items, which SetUser and a wire request admit, land in whatever order
// the (deterministic) sort leaves them, the same for every reader.
func sortRatings(rs []Rating) { slices.SortFunc(rs, compareItems) }

func compareItems(a, b Rating) int { return int(a.Item) - int(b.Item) }

// Component is one parallel service component of the CF recommender: its
// rating-matrix subset plus the synopsis and cached aggregated users.
type Component struct {
	M    *Matrix
	Syn  *synopsis.Synopsis
	Aggs []AggregatedUser
}

// BuildComponent packs the rating rows, then creates the component's
// synopsis (offline module) and aggregates every group.
func BuildComponent(m *Matrix, cfg synopsis.Config) (*Component, error) {
	m.users.Pack()
	syn, err := synopsis.Build(FeatureSource{M: m}, cfg)
	if err != nil {
		return nil, err
	}
	c := &Component{M: m, Syn: syn}
	c.reaggregate(nil)
	return c, nil
}

// reaggregate rebuilds aggregated users, reusing cached ones whose group
// ID survived (prev maps group ID -> cached aggregate).
func (c *Component) reaggregate(prev map[int64]AggregatedUser) {
	c.Aggs = synopsis.Aggregate(c.Syn.Groups(), prev, c.M.AggregateGroup)
}

// ApplyChanges routes input-data changes through the synopsis updater and
// re-aggregates only the groups whose membership changed — the paper's
// incremental synopsis updating. New users must already be in the matrix
// (AddUser) and changed users updated (SetUser) before calling.
func (c *Component) ApplyChanges(changes []synopsis.Change) (synopsis.UpdateStats, error) {
	prev := make(map[int64]AggregatedUser, len(c.Aggs))
	for _, ag := range c.Aggs {
		prev[ag.GroupID] = ag
	}
	st, err := c.Syn.Update(changes)
	if err != nil {
		return st, err
	}
	c.reaggregate(prev)
	return st, nil
}

// SynopsisSize returns the total number of ratings across aggregated
// users — the data volume scanned when processing the synopsis.
func (c *Component) SynopsisSize() int {
	n := 0
	for _, ag := range c.Aggs {
		n += len(ag.Ratings)
	}
	return n
}

// GroupSize returns the number of ratings held by group g's members — the
// data volume scanned when improving with that group (the simulator's cost
// model reads this).
func (c *Component) GroupSize(g int) int {
	n := 0
	for _, u := range c.Aggs[g].Members {
		n += len(c.M.Ratings(u))
	}
	return n
}
