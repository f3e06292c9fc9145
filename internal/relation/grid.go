package relation

import "qsub/internal/geom"

// gridIndex is the relation's access method: a uniform nx × ny grid of
// tuple slots, the index of the paper's simulator. Searches visit the
// cells under a region's bounding rectangle and the relation applies the
// exact region predicate to their slots. Besides the slot lists it keeps
// a live-bytes aggregate: a 2-D Fenwick tree over the cells holding the
// summed Tuple.Size of each cell's live tuples, updated in O(log nx · log
// ny) by insert and remove, so the bytes of any block of whole cells cost
// four prefix sums instead of a tuple scan.
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

// insert registers the tuple stored at slot idx at position p; size is its
// transmission size (Tuple.Size).
func (g *gridIndex) insert(idx int, p geom.Point, size int) {
	i, j := g.cellXY(p)
	g.cells[j*g.nx+i] = append(g.cells[j*g.nx+i], gridEntry{pos: p, idx: idx, size: size})
	g.addBytes(i, j, size)
}

// remove records that a tuple registered at p with the given size was
// tombstoned. Its slot stays in the cell; the relation filters tombstones.
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

// candidates invokes fn for every slot in the cells br touches: every slot
// whose position may lie in br, and more.
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
