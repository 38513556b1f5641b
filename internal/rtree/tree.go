package rtree

import (
	"fmt"
	"sort"
)

// entry is a slot in a node: either a child pointer (internal node) or a
// data item (leaf node).
type entry struct {
	rect  Rect
	child *node // nil for leaf entries
	id    int   // data ID for leaf entries
}

type node struct {
	leaf    bool
	entries []entry
	parent  *node
}

// Tree is a depth-balanced R-tree over d-dimensional points. Data items
// are identified by an integer ID supplied by the caller (the synopsis
// builder uses the original data-point index). The zero value is not
// usable; construct with New or Bulk.
type Tree struct {
	root     *node
	dim      int
	min, max int
	size     int
}

// DefaultMax is the default maximum node fan-out (Guttman's M).
const DefaultMax = 16

// New returns an empty tree over dim-dimensional points with node
// capacities [min,max]. min must be at least 2 and at most max/2.
func New(dim, min, max int) *Tree {
	if dim <= 0 {
		panic("rtree: non-positive dimension")
	}
	if min < 2 || min > max/2 {
		panic(fmt.Sprintf("rtree: invalid capacities min=%d max=%d", min, max))
	}
	return &Tree{
		root: &node{leaf: true},
		dim:  dim,
		min:  min,
		max:  max,
	}
}

// Len returns the number of stored data items.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a tree that is a single
// leaf). Depth 0 is the root level; leaves live at depth Height()-1.
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.entries[0].child {
		h++
	}
	return h
}

// Insert adds a data item with the given point and ID. IDs need not be
// unique as far as the tree is concerned, but the synopsis layer always
// supplies unique ones.
func (t *Tree) Insert(point []float64, id int) {
	if len(point) != t.dim {
		panic("rtree: point dimension mismatch")
	}
	t.insertEntry(entry{rect: PointRect(point), id: id}, 0)
	t.size++
}

// insertEntry inserts e at the given height above the leaf level
// (0 = leaf). Reinsertions during condense use level > 0.
func (t *Tree) insertEntry(e entry, level int) {
	n := t.chooseNode(e.rect, level)
	n.entries = append(n.entries, e)
	if e.child != nil {
		e.child.parent = n
	}
	if len(n.entries) > t.max {
		t.splitAndAdjust(n)
	} else {
		t.adjustUpward(n)
	}
}

// chooseNode descends to the node at `level` levels above the leaves whose
// MBR needs the least enlargement to cover r (ties: smallest area).
func (t *Tree) chooseNode(r Rect, level int) *node {
	n := t.root
	for {
		if n.leaf || t.levelAbove(n) == level {
			return n
		}
		best := -1
		bestEnl, bestArea := 0.0, 0.0
		for i := range n.entries {
			enl := n.entries[i].rect.Enlargement(r)
			area := n.entries[i].rect.Area()
			if best == -1 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		n = n.entries[best].child
	}
}

// levelAbove returns how many levels n sits above the leaf level.
func (t *Tree) levelAbove(n *node) int {
	l := 0
	for !n.leaf {
		n = n.entries[0].child
		l++
	}
	return l
}

// splitAndAdjust splits an overflowing node and propagates changes to the
// root, growing the tree when the root itself splits.
func (t *Tree) splitAndAdjust(n *node) {
	for {
		a, b := t.quadraticSplit(n)
		if n == t.root {
			root := &node{leaf: false}
			root.entries = []entry{
				{rect: mbr(a.entries), child: a},
				{rect: mbr(b.entries), child: b},
			}
			a.parent, b.parent = root, root
			t.root = root
			return
		}
		parent := n.parent
		// Replace n's slot with a and append b.
		for i := range parent.entries {
			if parent.entries[i].child == n {
				parent.entries[i] = entry{rect: mbr(a.entries), child: a}
				break
			}
		}
		a.parent = parent
		parent.entries = append(parent.entries, entry{rect: mbr(b.entries), child: b})
		b.parent = parent
		if len(parent.entries) > t.max {
			n = parent
			continue
		}
		t.adjustUpward(parent)
		return
	}
}

// adjustUpward recomputes MBRs from n up to the root.
func (t *Tree) adjustUpward(n *node) {
	for n != t.root {
		p := n.parent
		for i := range p.entries {
			if p.entries[i].child == n {
				p.entries[i].rect = mbr(n.entries)
				break
			}
		}
		n = p
	}
}

func mbr(entries []entry) Rect {
	r := entries[0].rect.clone()
	for _, e := range entries[1:] {
		r = r.Union(e.rect)
	}
	return r
}

// quadraticSplit distributes n's entries over n (reused) and a fresh node
// using Guttman's quadratic heuristic; it returns the two nodes.
func (t *Tree) quadraticSplit(n *node) (*node, *node) {
	entries := n.entries
	// Pick the pair wasting the most area if grouped together.
	si, sj := 0, 1
	worst := -1.0
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].rect.Union(entries[j].rect).Area() -
				entries[i].rect.Area() - entries[j].rect.Area()
			if d > worst {
				worst, si, sj = d, i, j
			}
		}
	}
	a := n
	b := &node{leaf: n.leaf, parent: n.parent}
	rest := make([]entry, 0, len(entries)-2)
	for k, e := range entries {
		if k != si && k != sj {
			rest = append(rest, e)
		}
	}
	ea, eb := entries[si], entries[sj]
	a.entries = append(a.entries[:0], ea)
	b.entries = append(b.entries, eb)
	if ea.child != nil {
		ea.child.parent = a
	}
	if eb.child != nil {
		eb.child.parent = b
	}
	ra, rb := ea.rect.clone(), eb.rect.clone()

	for len(rest) > 0 {
		// Force assignment when one group must take all remaining
		// entries to reach the minimum fill.
		if len(a.entries)+len(rest) == t.min {
			for _, e := range rest {
				a.entries = append(a.entries, e)
				if e.child != nil {
					e.child.parent = a
				}
			}
			break
		}
		if len(b.entries)+len(rest) == t.min {
			for _, e := range rest {
				b.entries = append(b.entries, e)
				if e.child != nil {
					e.child.parent = b
				}
			}
			break
		}
		// Pick the entry with the strongest preference.
		bi, bd := -1, -1.0
		var preferA bool
		for i, e := range rest {
			da := ra.Union(e.rect).Area() - ra.Area()
			db := rb.Union(e.rect).Area() - rb.Area()
			diff := da - db
			if diff < 0 {
				diff = -diff
			}
			if diff > bd {
				bd, bi = diff, i
				preferA = da < db
			}
		}
		e := rest[bi]
		rest[bi] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		if preferA || (bd == 0 && len(a.entries) <= len(b.entries)) {
			a.entries = append(a.entries, e)
			if e.child != nil {
				e.child.parent = a
			}
			ra = ra.Union(e.rect)
		} else {
			b.entries = append(b.entries, e)
			if e.child != nil {
				e.child.parent = b
			}
			rb = rb.Union(e.rect)
		}
	}
	return a, b
}

// Delete removes one data item with the given point and ID. It reports
// whether an item was found and removed. The tree is condensed so the
// depth-balance invariant is preserved.
func (t *Tree) Delete(point []float64, id int) bool {
	if len(point) != t.dim {
		panic("rtree: point dimension mismatch")
	}
	r := PointRect(point)
	leaf, idx := t.findLeaf(t.root, r, id)
	if leaf == nil {
		return false
	}
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.size--
	t.condense(leaf)
	// Shrink the root when it has a single child.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
		t.root.parent = nil
	}
	return true
}

func (t *Tree) findLeaf(n *node, r Rect, id int) (*node, int) {
	if n.leaf {
		for i, e := range n.entries {
			if e.id == id && e.rect.Lo[0] == r.Lo[0] && e.rect.Contains(r) {
				return n, i
			}
		}
		return nil, -1
	}
	for _, e := range n.entries {
		if e.rect.Contains(r) {
			if leaf, i := t.findLeaf(e.child, r, id); leaf != nil {
				return leaf, i
			}
		}
	}
	return nil, -1
}

// condense removes underfull nodes along the path to the root and
// reinserts their surviving entries at the correct level.
func (t *Tree) condense(n *node) {
	type orphan struct {
		e     entry
		level int
	}
	var orphans []orphan
	for n != t.root {
		p := n.parent
		if len(n.entries) < t.min {
			// Detach n and queue its entries for reinsertion.
			for i := range p.entries {
				if p.entries[i].child == n {
					p.entries = append(p.entries[:i], p.entries[i+1:]...)
					break
				}
			}
			lvl := t.levelAbove(n)
			for _, e := range n.entries {
				orphans = append(orphans, orphan{e: e, level: lvl})
			}
		} else {
			for i := range p.entries {
				if p.entries[i].child == n {
					p.entries[i].rect = mbr(n.entries)
					break
				}
			}
		}
		n = p
	}
	// Reinsert deepest-first so levels exist when needed.
	sort.SliceStable(orphans, func(i, j int) bool { return orphans[i].level < orphans[j].level })
	for _, o := range orphans {
		if o.e.child == nil && t.root.leaf && len(t.root.entries) == 0 {
			// Empty tree: drop straight into the root leaf.
			t.root.entries = append(t.root.entries, o.e)
			continue
		}
		t.insertEntry(o.e, o.level)
	}
}

func (t *Tree) collectIDs(n *node, dst []int) []int {
	if n.leaf {
		for _, e := range n.entries {
			dst = append(dst, e.id)
		}
		return dst
	}
	for _, e := range n.entries {
		dst = t.collectIDs(e.child, dst)
	}
	return dst
}

// LevelCut describes one node of a cut: its MBR and the IDs of all data
// items stored beneath it. The synopsis builder turns each LevelCut
// node into one aggregated data point.
type LevelCut struct {
	MBR     Rect
	Members []int
}
