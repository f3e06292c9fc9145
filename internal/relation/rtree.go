package relation

import (
	"sort"

	"qsub/internal/geom"
)

// spatialIndex abstracts the access method of the relation: the uniform
// grid of the paper's simulator, or an R-tree for skewed data. Both
// report candidate tuple slots for a bounding rectangle; the relation
// applies the exact region predicate afterwards.
type spatialIndex interface {
	// insert registers the tuple stored at slot idx at position p;
	// size is its transmission size (Tuple.Size).
	insert(idx int, p geom.Point, size int)
	// remove records that a tuple registered at p with the given size
	// was tombstoned. Its slot stays among the candidates; the relation
	// filters tombstones.
	remove(p geom.Point, size int)
	// candidates invokes fn for every slot whose position may lie in
	// br; it may over-approximate but must not miss.
	candidates(br geom.Rect, fn func(idx int))
}

// gridIndex is the uniform nx × ny grid used by New. Besides the slot
// lists it keeps a live-bytes aggregate: a 2-D Fenwick tree over the
// cells holding the summed Tuple.Size of each cell's live tuples, updated
// in O(log nx · log ny) by insert and remove, so the bytes of any block of
// whole cells cost four prefix sums instead of a tuple scan.
type gridIndex struct {
	bounds geom.Rect
	nx, ny int
	cells  [][]gridEntry
	bytes  []int // Fenwick tree, row-major: node (x, y), 1-based, at (y-1)*nx + x-1
}

// gridEntry is one tuple of a cell. It repeats the tuple's position and
// size so a size probe filters a cell without leaving the cell's memory.
type gridEntry struct {
	pos  geom.Point
	idx  int
	size int
}

func newGridIndex(bounds geom.Rect, nx, ny int) *gridIndex {
	return &gridIndex{bounds: bounds, nx: nx, ny: ny, cells: make([][]gridEntry, nx*ny), bytes: make([]int, nx*ny)}
}

// cellXY returns the cell column and row holding p. Positions outside the
// bounds land in the nearest boundary cell. Each coordinate's mapping is
// monotone non-decreasing, which is what makes blockBytes exact for the
// interior of a rectangle (see Relation.SizeBytesRect).
func (g *gridIndex) cellXY(p geom.Point) (i, j int) { return g.col(p.X), g.row(p.Y) }

// col returns the cell column of the coordinate x.
func (g *gridIndex) col(x float64) int {
	return gridCoord((x-g.bounds.MinX)/g.bounds.Width()*float64(g.nx), g.nx)
}

// row returns the cell row of the coordinate y.
func (g *gridIndex) row(y float64) int {
	return gridCoord((y-g.bounds.MinY)/g.bounds.Height()*float64(g.ny), g.ny)
}

// gridCoord truncates the scaled coordinate v to a cell index clamped to
// [0, n), for every grid of the package (index, delta index, histogram).
// It clamps the float, not the converted int: ±Inf and values
// beyond the int range convert to an unspecified int but still compare
// correctly, so the mapping stays monotone over all of them. NaN lands in
// cell 0.
func gridCoord(v float64, n int) int {
	if !(v > 0) {
		return 0
	}
	if v >= float64(n) {
		return n - 1
	}
	return int(v)
}

// cellRange returns the inclusive cell columns [i0, i1] and rows [j0, j1]
// the rectangle touches: the cells of its two corners.
func (g *gridIndex) cellRange(br geom.Rect) (i0, i1, j0, j1 int) {
	i0, j0 = g.cellXY(geom.Point{X: br.MinX, Y: br.MinY})
	i1, j1 = g.cellXY(geom.Point{X: br.MaxX, Y: br.MaxY})
	return i0, i1, j0, j1
}

func (g *gridIndex) insert(idx int, p geom.Point, size int) {
	i, j := g.cellXY(p)
	g.cells[j*g.nx+i] = append(g.cells[j*g.nx+i], gridEntry{pos: p, idx: idx, size: size})
	g.addBytes(i, j, size)
}

func (g *gridIndex) remove(p geom.Point, size int) {
	i, j := g.cellXY(p)
	g.addBytes(i, j, -size)
}

func (g *gridIndex) addBytes(i, j, delta int) {
	for x := i + 1; x <= g.nx; x += x & -x {
		for y := j + 1; y <= g.ny; y += y & -y {
			g.bytes[(y-1)*g.nx+x-1] += delta
		}
	}
}

// prefixBytes returns the live bytes of cell columns [0, i) × rows [0, j).
func (g *gridIndex) prefixBytes(i, j int) int {
	n := 0
	for x := i; x > 0; x -= x & -x {
		for y := j; y > 0; y -= y & -y {
			n += g.bytes[(y-1)*g.nx+x-1]
		}
	}
	return n
}

// blockBytes returns the live bytes of the cells in columns [i0, i1] ×
// rows [j0, j1], inclusive; zero when the block is empty.
func (g *gridIndex) blockBytes(i0, i1, j0, j1 int) int {
	if i0 > i1 || j0 > j1 {
		return 0
	}
	return g.prefixBytes(i1+1, j1+1) - g.prefixBytes(i0, j1+1) - g.prefixBytes(i1+1, j0) + g.prefixBytes(i0, j0)
}

func (g *gridIndex) candidates(br geom.Rect, fn func(idx int)) {
	i0, i1, j0, j1 := g.cellRange(br)
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			for _, e := range g.cells[j*g.nx+i] {
				fn(e.idx)
			}
		}
	}
}

// rtreeIndex is a point R-tree with least-enlargement insertion and
// longest-axis median splits. It adapts to skew (clustered battlefield
// data) without the grid's fixed resolution.
type rtreeIndex struct {
	root       *rtreeNode
	maxEntries int
}

// rtreeNode is either a leaf (ids/pts set) or an internal node (children
// set).
type rtreeNode struct {
	bounds   geom.Rect
	children []*rtreeNode
	ids      []int
	pts      []geom.Point
}

func newRTreeIndex(maxEntries int) *rtreeIndex {
	if maxEntries < 4 {
		maxEntries = 4
	}
	return &rtreeIndex{
		root:       &rtreeNode{bounds: geom.EmptyRect()},
		maxEntries: maxEntries,
	}
}

// remove is a no-op: the R-tree keeps no per-node aggregate.
func (t *rtreeIndex) remove(geom.Point, int) {}

func (t *rtreeIndex) insert(idx int, p geom.Point, _ int) {
	split := t.insertAt(t.root, idx, p)
	if split != nil {
		// Root split: grow the tree by one level.
		old := t.root
		t.root = &rtreeNode{
			bounds:   old.bounds.Union(split.bounds),
			children: []*rtreeNode{old, split},
		}
	}
}

// insertAt descends to a leaf, inserting the point; it returns a new
// sibling when the visited node split.
func (t *rtreeIndex) insertAt(n *rtreeNode, idx int, p geom.Point) *rtreeNode {
	n.bounds = n.bounds.Union(geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
	if n.children == nil {
		n.ids = append(n.ids, idx)
		n.pts = append(n.pts, p)
		if len(n.ids) > t.maxEntries {
			return splitLeaf(n)
		}
		return nil
	}
	best := n.children[0]
	bestGrowth := enlargement(best.bounds, p)
	for _, c := range n.children[1:] {
		if g := enlargement(c.bounds, p); g < bestGrowth ||
			(g == bestGrowth && c.bounds.Area() < best.bounds.Area()) {
			best, bestGrowth = c, g
		}
	}
	if split := t.insertAt(best, idx, p); split != nil {
		n.children = append(n.children, split)
		if len(n.children) > t.maxEntries {
			return splitInternal(n)
		}
	}
	return nil
}

// enlargement is the area growth of r when extended to contain p.
func enlargement(r geom.Rect, p geom.Point) float64 {
	if r.Empty() {
		return 0
	}
	grown := r.Union(geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
	return grown.Area() - r.Area()
}

// splitLeaf divides a leaf along the median of its longer axis and
// returns the new sibling; n keeps the lower half.
func splitLeaf(n *rtreeNode) *rtreeNode {
	byX := n.bounds.Width() >= n.bounds.Height()
	order := make([]int, len(n.ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := n.pts[order[a]], n.pts[order[b]]
		if byX {
			return pa.X < pb.X
		}
		return pa.Y < pb.Y
	})
	mid := len(order) / 2
	lowIDs := make([]int, 0, mid)
	lowPts := make([]geom.Point, 0, mid)
	highIDs := make([]int, 0, len(order)-mid)
	highPts := make([]geom.Point, 0, len(order)-mid)
	for i, o := range order {
		if i < mid {
			lowIDs = append(lowIDs, n.ids[o])
			lowPts = append(lowPts, n.pts[o])
		} else {
			highIDs = append(highIDs, n.ids[o])
			highPts = append(highPts, n.pts[o])
		}
	}
	sibling := &rtreeNode{ids: highIDs, pts: highPts, bounds: boundsOfPoints(highPts)}
	n.ids, n.pts = lowIDs, lowPts
	n.bounds = boundsOfPoints(lowPts)
	return sibling
}

// splitInternal divides an internal node's children by the median center
// of the longer axis.
func splitInternal(n *rtreeNode) *rtreeNode {
	byX := n.bounds.Width() >= n.bounds.Height()
	sort.Slice(n.children, func(a, b int) bool {
		ca, cb := n.children[a].bounds, n.children[b].bounds
		if byX {
			return ca.MinX+ca.MaxX < cb.MinX+cb.MaxX
		}
		return ca.MinY+ca.MaxY < cb.MinY+cb.MaxY
	})
	mid := len(n.children) / 2
	sibling := &rtreeNode{children: append([]*rtreeNode(nil), n.children[mid:]...)}
	n.children = n.children[:mid]
	n.bounds = boundsOfChildren(n.children)
	sibling.bounds = boundsOfChildren(sibling.children)
	return sibling
}

func boundsOfPoints(pts []geom.Point) geom.Rect {
	out := geom.EmptyRect()
	for _, p := range pts {
		out = out.Union(geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
	}
	return out
}

func boundsOfChildren(children []*rtreeNode) geom.Rect {
	out := geom.EmptyRect()
	for _, c := range children {
		out = out.Union(c.bounds)
	}
	return out
}

func (t *rtreeIndex) candidates(br geom.Rect, fn func(idx int)) {
	t.walk(t.root, br, fn)
}

func (t *rtreeIndex) walk(n *rtreeNode, br geom.Rect, fn func(idx int)) {
	if !n.bounds.Intersects(br) {
		return
	}
	if n.children == nil {
		for i, p := range n.pts {
			if br.Contains(p) {
				fn(n.ids[i])
			}
		}
		return
	}
	for _, c := range n.children {
		t.walk(c, br, fn)
	}
}

// depth returns the height of the tree (for tests).
func (t *rtreeIndex) depth() int {
	d := 1
	for n := t.root; n.children != nil; n = n.children[0] {
		d++
	}
	return d
}
