// Package workload generates the clustered query inputs of the paper's
// evaluation (§9.1). Queries are a hybrid of random and clustered: a
// fraction cf of all queries belong to clusters, each cluster holding a
// fraction sf of the clustered queries, scattered around a random origin
// with a normal distribution whose spread is df. Query widths and heights
// are drawn uniformly from configured ranges.
package workload

import (
	"fmt"
	"math/rand"

	"qsub/internal/geom"
	"qsub/internal/query"
)

// Config controls query generation. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// DB is the attribute-space extent of the database.
	DB geom.Rect
	// CF is the clustering factor: the fraction of queries generated
	// inside clusters (the remainder is uniform random). 0 ≤ CF ≤ 1.
	CF float64
	// SF is the cluster size factor: the fraction of the clustered
	// queries that one cluster holds, so the generator creates
	// ceil(1/SF) cluster origins. 0 < SF ≤ 1 when CF > 0.
	SF float64
	// DF is the cluster density: the standard deviation of the normal
	// scatter of query centers around their cluster origin, in
	// attribute-space units.
	DF float64
	// MinW, MaxW, MinH, MaxH bound the query rectangle extents.
	MinW, MaxW, MinH, MaxH float64
	// DupF is the near-duplicate fraction: that share of the generated
	// queries are jittered copies of earlier queries (jitter far below
	// the aggregation pitch), modelling populations subscribing to the
	// same hotspots. 0 ≤ DupF < 1; 0 (the default) generates exactly
	// the historical workload.
	DupF float64
	// Seed drives all randomness; equal seeds give equal workloads.
	Seed int64
}

// DefaultConfig returns the parameters used by the experiment harness: a
// 1000×1000 database, 70% clustered queries, clusters of 25% of the
// clustered queries, normal spread 40 units, query extents 20-80 units.
func DefaultConfig() Config {
	return Config{
		DB:   geom.R(0, 0, 1000, 1000),
		CF:   0.7,
		SF:   0.25,
		DF:   40,
		MinW: 20, MaxW: 80,
		MinH: 20, MaxH: 80,
		Seed: 1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.DB.Empty() || c.DB.Area() == 0 {
		return fmt.Errorf("workload: DB bounds %v must have positive area", c.DB)
	}
	if c.CF < 0 || c.CF > 1 {
		return fmt.Errorf("workload: CF %g outside [0,1]", c.CF)
	}
	if c.CF > 0 && (c.SF <= 0 || c.SF > 1) {
		return fmt.Errorf("workload: SF %g outside (0,1] with CF > 0", c.SF)
	}
	if c.CF > 0 && c.DF <= 0 {
		return fmt.Errorf("workload: DF %g must be positive with CF > 0", c.DF)
	}
	if c.MinW <= 0 || c.MaxW < c.MinW || c.MinH <= 0 || c.MaxH < c.MinH {
		return fmt.Errorf("workload: invalid query extent ranges [%g,%g]×[%g,%g]",
			c.MinW, c.MaxW, c.MinH, c.MaxH)
	}
	if c.DupF < 0 || c.DupF >= 1 {
		return fmt.Errorf("workload: DupF %g outside [0,1)", c.DupF)
	}
	return nil
}

// Generator produces queries and client subscriptions from a Config.
type Generator struct {
	cfg    Config
	rng    *rand.Rand
	nextID query.ID
}

// NewGenerator validates the configuration and returns a generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// MustNewGenerator is NewGenerator but panics on error.
func MustNewGenerator(cfg Config) *Generator {
	g, err := NewGenerator(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Queries generates n queries: round(cf·n) clustered, the rest uniform.
// Cluster origins are uniform over the database; clustered query centers
// are normal around their origin with standard deviation DF, clamped to
// the database bounds. With DupF > 0 the trailing round(DupF·n) queries
// are near-duplicates: copies of uniformly chosen earlier queries with
// corner jitter of at most 1e-6 units. n ≤ 0 yields no queries and
// leaves the generator's random stream where it was.
func (g *Generator) Queries(n int) []query.Query {
	if n <= 0 {
		return nil
	}
	nDup := int(g.cfg.DupF*float64(n) + 0.5)
	if nDup >= n {
		nDup = n - 1
	}
	base := n - nDup
	out := g.baseQueries(base)
	for len(out) < n {
		src := out[g.rng.Intn(len(out))]
		r := src.Region.BoundingRect()
		j := func() float64 { return (g.rng.Float64() - 0.5) * 2e-6 }
		g.nextID++
		out = append(out, query.Range(g.nextID, geom.R(
			g.clampX(r.MinX+j()), g.clampY(r.MinY+j()),
			g.clampX(r.MaxX+j()), g.clampY(r.MaxY+j()),
		)))
	}
	return out
}

func (g *Generator) baseQueries(n int) []query.Query {
	nClustered := int(g.cfg.CF*float64(n) + 0.5)
	out := make([]query.Query, 0, n)

	if nClustered > 0 {
		perCluster := int(g.cfg.SF*float64(nClustered) + 0.5)
		if perCluster < 1 {
			perCluster = 1
		}
		var origin geom.Point
		for i := 0; i < nClustered; i++ {
			if i%perCluster == 0 {
				origin = g.uniformPoint()
			}
			center := geom.Pt(
				g.clampX(origin.X+g.rng.NormFloat64()*g.cfg.DF),
				g.clampY(origin.Y+g.rng.NormFloat64()*g.cfg.DF),
			)
			out = append(out, g.queryAt(center))
		}
	}
	for len(out) < n {
		out = append(out, g.queryAt(g.uniformPoint()))
	}
	return out
}

// Clients generates p clients that together subscribe to the given
// queries, splitting the query list into contiguous runs of roughly equal
// length (every query is subscribed by exactly one client, matching the
// §8 experiments where clients own disjoint query sets). It returns per-
// client index lists into qs.
func (g *Generator) Clients(p int, qs []query.Query) [][]int {
	if p < 1 {
		p = 1
	}
	out := make([][]int, p)
	for i := range qs {
		c := i * p / len(qs)
		out[c] = append(out[c], i)
	}
	return out
}

// queryAt builds a query rectangle centered at the point with random
// extents, clamped into the database.
func (g *Generator) queryAt(center geom.Point) query.Query {
	w := g.cfg.MinW + g.rng.Float64()*(g.cfg.MaxW-g.cfg.MinW)
	h := g.cfg.MinH + g.rng.Float64()*(g.cfg.MaxH-g.cfg.MinH)
	r := geom.R(
		g.clampX(center.X-w/2), g.clampY(center.Y-h/2),
		g.clampX(center.X+w/2), g.clampY(center.Y+h/2),
	)
	g.nextID++
	return query.Range(g.nextID, r)
}

func (g *Generator) uniformPoint() geom.Point {
	return geom.Pt(
		g.clampX(g.cfg.DB.MinX+g.rng.Float64()*g.cfg.DB.Width()),
		g.clampY(g.cfg.DB.MinY+g.rng.Float64()*g.cfg.DB.Height()),
	)
}

func (g *Generator) clampX(x float64) float64 {
	if x < g.cfg.DB.MinX {
		return g.cfg.DB.MinX
	}
	if x > g.cfg.DB.MaxX {
		return g.cfg.DB.MaxX
	}
	return x
}

func (g *Generator) clampY(y float64) float64 {
	if y < g.cfg.DB.MinY {
		return g.cfg.DB.MinY
	}
	if y > g.cfg.DB.MaxY {
		return g.cfg.DB.MaxY
	}
	return y
}

// Points generates n tuple positions with the same clustered/uniform mix
// as Queries; the BADD motivation (§9.1) wants data density to follow the
// same hotspots the queries do. n ≤ 0 yields no points.
func (g *Generator) Points(n int) []geom.Point {
	if n <= 0 {
		return nil
	}
	nClustered := int(g.cfg.CF*float64(n) + 0.5)
	out := make([]geom.Point, 0, n)
	if nClustered > 0 {
		perCluster := int(g.cfg.SF*float64(nClustered) + 0.5)
		if perCluster < 1 {
			perCluster = 1
		}
		var origin geom.Point
		for i := 0; i < nClustered; i++ {
			if i%perCluster == 0 {
				origin = g.uniformPoint()
			}
			out = append(out, geom.Pt(
				g.clampX(origin.X+g.rng.NormFloat64()*g.cfg.DF),
				g.clampY(origin.Y+g.rng.NormFloat64()*g.cfg.DF),
			))
		}
	}
	for len(out) < n {
		out = append(out, g.uniformPoint())
	}
	return out
}
