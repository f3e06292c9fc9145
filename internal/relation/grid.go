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
//
// Each cell is its own slice, but after layOut the cells share one
// backing array in cell order, so a row-major walk over a block of cells
// reads memory in order. An insert into a cell with spare capacity lands
// in place; a full cell moves out alone, through append.
type gridIndex struct {
	grid
	cells   [][]gridEntry
	bytes   []int // Fenwick tree, row-major: node (x, y), 1-based, at (y-1)*nx + x-1
	entries int   // entries filed, tombstones included
	laidOut int   // entries at the last layOut; 0 when never laid out
}

// gridEntry is one tuple of a cell. It repeats the tuple's position and
// size so a probe filters a cell without leaving the cell's memory, and
// reads a tuple only once it matched. idx is the tuple's slot in
// Relation.tuples (a relation holds fewer than 2^31); slot order is id
// order.
type gridEntry struct {
	pos  geom.Point
	idx  int32
	size int
}

func newGridIndex(bounds geom.Rect, nx, ny int) *gridIndex {
	return &gridIndex{grid: grid{bounds: bounds, nx: nx, ny: ny}, cells: make([][]gridEntry, nx*ny), bytes: make([]int, nx*ny)}
}

// newLaidOutGridIndex files tuples, slot k holding tuples[k], in one
// counting-sort pass: each cell gets exactly its entries, in slot order,
// in one backing array in cell order, the layout layOut makes.
func newLaidOutGridIndex(bounds geom.Rect, nx, ny int, tuples []Tuple) *gridIndex {
	g := newGridIndex(bounds, nx, ny)
	start := make([]int, len(g.cells)+1)
	for _, t := range tuples {
		i, j := g.cellXY(t.Pos)
		start[j*nx+i+1]++
		g.addBytes(i, j, t.Size())
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	arena := make([]gridEntry, len(tuples))
	for c := range g.cells {
		g.cells[c] = arena[start[c]:start[c]:start[c+1]]
	}
	for k, t := range tuples {
		i, j := g.cellXY(t.Pos)
		c := j*nx + i
		g.cells[c] = append(g.cells[c], gridEntry{pos: t.Pos, idx: int32(k), size: t.Size()})
	}
	g.entries, g.laidOut = len(tuples), len(tuples)
	return g
}

// layOut moves every cell into one new backing array in cell order, each
// keeping its entries, their order and its capacity, so a cell with spare
// room still takes inserts in place.
func (g *gridIndex) layOut() {
	total := 0
	for _, cell := range g.cells {
		total += cap(cell)
	}
	arena := make([]gridEntry, total)
	off := 0
	for c, cell := range g.cells {
		n := copy(arena[off:], cell)
		g.cells[c] = arena[off : off+n : off+cap(cell)]
		off += cap(cell)
	}
	g.laidOut = g.entries
}

// layOutDue reports that the entries have at least doubled since the last
// layOut, or were never laid out: laying out then costs a copy amortized
// against the growth.
func (g *gridIndex) layOutDue() bool {
	return g.entries > 0 && g.entries >= 2*g.laidOut
}

// grid maps the plane onto a uniform nx × ny array of cells laid over
// bounds, for every grid of the package that files items by cell (the
// relation's index, the delta batch grid, the region index).
type grid struct {
	bounds geom.Rect
	nx, ny int
}

// cellXY returns the cell column and row holding p. Positions outside the
// bounds land in the nearest boundary cell. Each coordinate's mapping is
// monotone non-decreasing, which is what makes blockBytes exact for the
// interior of a rectangle (see Relation.SizeBytesRect), and what puts
// every point of a rectangle in a cell of its cellRange.
func (g *grid) cellXY(p geom.Point) (i, j int) { return g.col(p.X), g.row(p.Y) }

// col returns the cell column of the coordinate x.
func (g *grid) col(x float64) int {
	return gridCoord((x-g.bounds.MinX)/g.bounds.Width()*float64(g.nx), g.nx)
}

// row returns the cell row of the coordinate y.
func (g *grid) row(y float64) int {
	return gridCoord((y-g.bounds.MinY)/g.bounds.Height()*float64(g.ny), g.ny)
}

// gridCoord truncates the scaled coordinate v to a cell index clamped to
// [0, n), for every grid of the package (grid, histogram, rank table).
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
func (g *grid) cellRange(br geom.Rect) (i0, i1, j0, j1 int) {
	i0, j0 = g.cellXY(geom.Point{X: br.MinX, Y: br.MinY})
	i1, j1 = g.cellXY(geom.Point{X: br.MaxX, Y: br.MaxY})
	return i0, i1, j0, j1
}

// insert registers the tuple stored at slot idx at position p; size is its
// transmission size (Tuple.Size).
func (g *gridIndex) insert(idx int32, p geom.Point, size int) {
	i, j := g.cellXY(p)
	g.cells[j*g.nx+i] = append(g.cells[j*g.nx+i], gridEntry{pos: p, idx: idx, size: size})
	g.entries++
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

// cellLists is a grid in counting-sort (CSR) layout: cell c files the
// item indices items[start[c]:start[c+1]], ascending. Building it costs
// two passes over the items and three slices regardless of the cell
// count, and it is immutable afterwards.
type cellLists struct {
	grid
	start []int32
	items []int32
}

// newCellLists files items 0..n-1 under every cell of the inclusive block
// of columns [i0, i1] × rows [j0, j1] that block(k) returns; an item
// whose block reports !ok is filed nowhere.
func newCellLists(g grid, n int, block func(k int) (i0, i1, j0, j1 int, ok bool)) *cellLists {
	cells := g.nx * g.ny
	start := make([]int32, cells+1)
	for k := 0; k < n; k++ {
		i0, i1, j0, j1, ok := block(k)
		if !ok {
			continue
		}
		for j := j0; j <= j1; j++ {
			for i := i0; i <= i1; i++ {
				start[j*g.nx+i+1]++
			}
		}
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	items := make([]int32, start[cells])
	fill := make([]int32, cells)
	copy(fill, start[:cells])
	for k := 0; k < n; k++ {
		i0, i1, j0, j1, ok := block(k)
		if !ok {
			continue
		}
		for j := j0; j <= j1; j++ {
			for i := i0; i <= i1; i++ {
				c := j*g.nx + i
				items[fill[c]] = int32(k)
				fill[c]++
			}
		}
	}
	return &cellLists{grid: g, start: start, items: items}
}

// cell returns the items filed under cell column i, row j.
func (l *cellLists) cell(i, j int) []int32 {
	c := j*l.nx + i
	return l.items[l.start[c]:l.start[c+1]]
}
