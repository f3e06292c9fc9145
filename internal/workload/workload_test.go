package workload

import (
	"math"
	"testing"

	"qsub/internal/geom"
	"qsub/internal/query"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", func(*Config) {}, true},
		{"empty db", func(c *Config) { c.DB = geom.EmptyRect() }, false},
		{"cf too big", func(c *Config) { c.CF = 1.5 }, false},
		{"cf negative", func(c *Config) { c.CF = -0.1 }, false},
		{"sf zero with cf", func(c *Config) { c.SF = 0 }, false},
		{"df zero with cf", func(c *Config) { c.DF = 0 }, false},
		{"sf irrelevant without cf", func(c *Config) { c.CF = 0; c.SF = 0; c.DF = 0 }, true},
		{"min width zero", func(c *Config) { c.MinW = 0 }, false},
		{"max width below min", func(c *Config) { c.MaxW = c.MinW - 1 }, false},
		{"max height below min", func(c *Config) { c.MaxH = c.MinH - 1 }, false},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		c.mutate(&cfg)
		err := cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%t", c.name, err, c.ok)
		}
	}
}

func TestQueriesCountAndBounds(t *testing.T) {
	g := MustNewGenerator(DefaultConfig())
	qs := g.Queries(100)
	if len(qs) != 100 {
		t.Fatalf("generated %d queries, want 100", len(qs))
	}
	db := DefaultConfig().DB
	seen := map[query.ID]bool{}
	for _, q := range qs {
		r := q.Region.(geom.Rect)
		if !db.ContainsRect(r) {
			t.Fatalf("query %v escapes database bounds", q)
		}
		if seen[q.ID] {
			t.Fatalf("duplicate query id %d", q.ID)
		}
		seen[q.ID] = true
	}
}

// TestQueriesExactCount pins that Queries(n) returns exactly n queries
// for small n with and without near-duplicates, and that a negative
// count yields no points instead of a panic.
func TestQueriesExactCount(t *testing.T) {
	for _, dupF := range []float64{0, 0.5} {
		for _, n := range []int{0, 1, 2, 7} {
			cfg := DefaultConfig()
			cfg.DupF = dupF
			g := MustNewGenerator(cfg)
			if got := len(g.Queries(n)); got != n {
				t.Errorf("DupF %g: Queries(%d) returned %d queries", dupF, n, got)
			}
		}
	}
	g := MustNewGenerator(DefaultConfig())
	if got := len(g.Queries(-1)); got != 0 {
		t.Errorf("Queries(-1) returned %d queries", got)
	}
	if got := len(g.Points(-1)); got != 0 {
		t.Errorf("Points(-1) returned %d points", got)
	}
}

// TestEmptyRequestsLeaveStreamUnchanged pins that asking for no queries
// or points draws nothing from the generator's random stream.
func TestEmptyRequestsLeaveStreamUnchanged(t *testing.T) {
	a, b := MustNewGenerator(DefaultConfig()), MustNewGenerator(DefaultConfig())
	a.Queries(0)
	a.Points(0)
	a.Points(-3)
	qa, qb := a.Queries(5), b.Queries(5)
	for i := range qa {
		if qa[i].Region.BoundingRect() != qb[i].Region.BoundingRect() {
			t.Fatalf("query %d differs after empty requests: %v vs %v", i, qa[i], qb[i])
		}
	}
}

func TestQueriesDeterministicPerSeed(t *testing.T) {
	a := MustNewGenerator(DefaultConfig()).Queries(20)
	b := MustNewGenerator(DefaultConfig()).Queries(20)
	for i := range a {
		if a[i].Region.(geom.Rect) != b[i].Region.(geom.Rect) {
			t.Fatal("same seed should generate the same workload")
		}
	}
	cfg := DefaultConfig()
	cfg.Seed = 999
	c := MustNewGenerator(cfg).Queries(20)
	same := true
	for i := range a {
		if a[i].Region.(geom.Rect) != c[i].Region.(geom.Rect) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should generate different workloads")
	}
}

func TestQueryExtentsWithinConfiguredRange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CF = 0 // uniform only, so no boundary clamping shrinks rects
	cfg.DB = geom.R(0, 0, 100000, 100000)
	g := MustNewGenerator(cfg)
	for _, q := range g.Queries(200) {
		r := q.Region.(geom.Rect)
		// Clamping at the DB edge can shrink a query, so only the
		// upper bounds are strict.
		if r.Width() > cfg.MaxW+1e-9 || r.Height() > cfg.MaxH+1e-9 {
			t.Fatalf("query %v exceeds max extents", r)
		}
	}
}

// clusteringScore measures spatial concentration: the mean distance from
// each query center to its nearest other query center.
func clusteringScore(qs []query.Query) float64 {
	centers := make([]geom.Point, len(qs))
	for i, q := range qs {
		r := q.Region.BoundingRect()
		centers[i] = geom.Pt((r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2)
	}
	total := 0.0
	for i, c := range centers {
		best := math.Inf(1)
		for j, d := range centers {
			if i == j {
				continue
			}
			dist := math.Hypot(c.X-d.X, c.Y-d.Y)
			if dist < best {
				best = dist
			}
		}
		total += best
	}
	return total / float64(len(centers))
}

func TestClusteredWorkloadIsMoreConcentrated(t *testing.T) {
	clustered := DefaultConfig()
	clustered.CF = 1.0
	clustered.DF = 20
	uniform := DefaultConfig()
	uniform.CF = 0

	cs := clusteringScore(MustNewGenerator(clustered).Queries(80))
	us := clusteringScore(MustNewGenerator(uniform).Queries(80))
	if cs >= us {
		t.Fatalf("clustered workload should be more concentrated: clustered %g, uniform %g", cs, us)
	}
}

func TestClientsPartitionQueries(t *testing.T) {
	g := MustNewGenerator(DefaultConfig())
	qs := g.Queries(17)
	clients := g.Clients(5, qs)
	if len(clients) != 5 {
		t.Fatalf("got %d clients, want 5", len(clients))
	}
	seen := map[int]bool{}
	for _, c := range clients {
		for _, q := range c {
			if seen[q] {
				t.Fatalf("query %d assigned twice", q)
			}
			seen[q] = true
		}
	}
	if len(seen) != 17 {
		t.Fatalf("clients cover %d queries, want 17", len(seen))
	}
	// Roughly balanced: sizes differ by at most 1.
	min, max := len(qs), 0
	for _, c := range clients {
		if len(c) < min {
			min = len(c)
		}
		if len(c) > max {
			max = len(c)
		}
	}
	if max-min > 1 {
		t.Fatalf("client loads unbalanced: min %d, max %d", min, max)
	}
}

func TestClientsMinimumOne(t *testing.T) {
	g := MustNewGenerator(DefaultConfig())
	qs := g.Queries(3)
	clients := g.Clients(0, qs)
	if len(clients) != 1 {
		t.Fatalf("p<1 should clamp to one client, got %d", len(clients))
	}
}

func TestPointsInBounds(t *testing.T) {
	g := MustNewGenerator(DefaultConfig())
	pts := g.Points(500)
	if len(pts) != 500 {
		t.Fatalf("generated %d points, want 500", len(pts))
	}
	db := DefaultConfig().DB
	for _, p := range pts {
		if !db.Contains(p) {
			t.Fatalf("point %v outside database", p)
		}
	}
}

func TestNewGeneratorRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CF = 2
	if _, err := NewGenerator(cfg); err == nil {
		t.Fatal("invalid config should be rejected")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewGenerator should panic on invalid config")
		}
	}()
	MustNewGenerator(cfg)
}

func TestClusteredFractionMatchesCF(t *testing.T) {
	// With DF small relative to the space, clustered queries land near
	// one of ceil(1/SF) origins. We verify indirectly: the first
	// round(cf·n) queries of each run are generated by the clustering
	// branch, so two runs differing only in CF must agree on the
	// uniform tail length. Directly, check the count arithmetic.
	for _, tc := range []struct {
		cf   float64
		n    int
		want int // clustered count
	}{
		{0, 10, 0}, {1, 10, 10}, {0.7, 10, 7}, {0.25, 8, 2}, {0.5, 3, 2},
	} {
		nClustered := int(tc.cf*float64(tc.n) + 0.5)
		if nClustered != tc.want {
			t.Fatalf("cf=%g n=%d: clustered=%d, want %d", tc.cf, tc.n, nClustered, tc.want)
		}
	}
}

func TestDFControlsSpread(t *testing.T) {
	// Tighter DF produces more concentrated clusters.
	tight := DefaultConfig()
	tight.CF = 1
	tight.SF = 1 // one cluster
	tight.DF = 5
	loose := tight
	loose.DF = 150
	ts := clusteringScore(MustNewGenerator(tight).Queries(60))
	ls := clusteringScore(MustNewGenerator(loose).Queries(60))
	if ts >= ls {
		t.Fatalf("tight DF should concentrate queries: tight %g, loose %g", ts, ls)
	}
}

func TestPointsDeterministicPerSeed(t *testing.T) {
	a := MustNewGenerator(DefaultConfig()).Points(50)
	b := MustNewGenerator(DefaultConfig()).Points(50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed should generate the same points")
		}
	}
}

func TestQueriesUniqueIDsAcrossCalls(t *testing.T) {
	g := MustNewGenerator(DefaultConfig())
	seen := map[query.ID]bool{}
	for call := 0; call < 3; call++ {
		for _, q := range g.Queries(10) {
			if seen[q.ID] {
				t.Fatalf("query id %d reused across calls", q.ID)
			}
			seen[q.ID] = true
		}
	}
}
