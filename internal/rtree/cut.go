package rtree

// CutToTarget returns a partition of the stored data into at most
// maxNodes groups of R-tree nodes. It starts from the deepest level
// whose node count fits and then greedily splits the largest remaining
// nodes into their children while the group count stays within
// maxNodes.
//
// Rationale: with fan-out F the per-level node counts jump by ~F x, so a
// pure single-depth cut can land far below the requested synopsis size
// (e.g. 3 groups when 13 were requested), making correlation ranking
// needlessly coarse. The refinement keeps every group an R-tree node —
// preserving the similarity grouping of paper §2.2 — while approaching
// the requested granularity.
func (t *Tree) CutToTarget(maxNodes int) []LevelCut {
	if t.Len() == 0 {
		return nil
	}
	if maxNodes < 1 {
		maxNodes = 1
	}
	cut := t.deepestLevelWithin(maxNodes)
	sizes := make(map[*node]int, len(cut))
	size := func(n *node) int {
		if s, ok := sizes[n]; ok {
			return s
		}
		s := len(t.collectIDs(n, nil))
		sizes[n] = s
		return s
	}
	for {
		best := -1
		for i, n := range cut {
			if n.leaf || len(cut)+len(n.entries)-1 > maxNodes {
				continue
			}
			if best == -1 || size(n) > size(cut[best]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		cut = append(cut[:best], append(children(cut[best:best+1]), cut[best+1:]...)...)
	}
	out := make([]LevelCut, 0, len(cut))
	for _, n := range cut {
		out = append(out, LevelCut{MBR: mbr(n.entries), Members: t.collectIDs(n, nil)})
	}
	return out
}

// deepestLevelWithin walks the tree level by level from the root and
// returns the nodes of the deepest level with at most maxNodes nodes
// (the root level when no deeper one fits). In a non-empty tree every
// node has entries, so the levels partition the stored IDs.
func (t *Tree) deepestLevelWithin(maxNodes int) []*node {
	level := []*node{t.root}
	for d := 1; d < t.Height(); d++ {
		next := children(level)
		if len(next) > maxNodes {
			break
		}
		level = next
	}
	return level
}

// children returns the child nodes of every node in level, in order.
func children(level []*node) []*node {
	var next []*node
	for _, n := range level {
		for _, e := range n.entries {
			next = append(next, e.child)
		}
	}
	return next
}
