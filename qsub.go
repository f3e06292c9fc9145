// Package qsub is a library for efficient query subscription processing in
// a multicast environment, reproducing Crespo, Buyukkokten and
// Garcia-Molina's ICDE 2000 paper of the same name.
//
// A subscription server receives standing geographic queries from clients,
// merges "similar" queries into combined queries (reducing server work and
// transmitted bytes at the price of client-side extraction), allocates
// clients to a fixed set of multicast channels, and periodically publishes
// merged answers. Clients recover their exact answers by applying their
// original query as an extractor.
//
// The package is a facade over the internal subsystems:
//
//   - query merging algorithms (partition search, pair merging) over an
//     abstract cost model
//   - merge procedures (bounding rectangle, bounding polygon, banded
//     hull, exact)
//   - a spatial relation with a grid index and size estimators
//   - channel allocation (exhaustive and hill-climbing heuristics)
//   - a multicast network simulator with per-byte accounting
//   - a clustered workload generator
//
// # Quick start
//
//	rel := qsub.NewRelation(qsub.R(0, 0, 1000, 1000), 20, 20)
//	// rel.Insert(position, payload) for every object, then:
//	net, _ := qsub.NewNetwork(1)
//	srv, _ := qsub.NewServer(rel, net, qsub.ServerConfig{Model: qsub.DefaultModel()})
//	srv.Subscribe(0, qsub.RangeQuery(1, qsub.R(50, 50, 150, 150)))
//	cycle, _ := srv.Plan()
//	// subscribe each client to cycle.ClientChannel[id], then:
//	srv.Publish(cycle)
//
// The examples in example_test.go are complete programs whose output
// `go test` checks: Example runs the whole subscribe, merge, allocate,
// publish and extract cycle.
package qsub

import (
	"qsub/internal/chanalloc"
	"qsub/internal/client"
	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/server"
	"qsub/internal/workload"
)

// Rect is a closed axis-aligned rectangle of the two-dimensional
// attribute space.
type Rect = geom.Rect

// R is shorthand for a rectangle from its corner coordinates.
func R(minX, minY, maxX, maxY float64) Rect { return geom.R(minX, minY, maxX, maxY) }

// Queries and merge procedures.
type (
	// Query is a selection query over the spatial relation.
	Query = query.Query
	// QueryID identifies a query within the subscription service.
	QueryID = query.ID
	// MergeProcedure combines queries into one merged query (Fig 5).
	MergeProcedure = query.MergeProcedure
	// BoundingRect is the bounding rectangle merge procedure (Fig 5a).
	BoundingRect = query.BoundingRect
)

// RangeQuery constructs a geographic range query over a rectangle.
func RangeQuery(id QueryID, r Rect) Query { return query.Range(id, r) }

// MergeProcedures returns the merge procedures of Fig 5 plus the banded
// hull.
func MergeProcedures() []MergeProcedure { return query.Procedures() }

// Model holds the cost model constants K_M, K_T, K_U (§4) plus the
// channel-allocation extensions K_D and K6.
type Model = cost.Model

// DefaultModel returns the constants of the paper's running example.
func DefaultModel() Model { return cost.DefaultModel() }

// Merging engine.
type (
	// Plan is a partition of queries into merged sets.
	Plan = core.Plan
	// Instance is one query merging problem.
	Instance = core.Instance
	// Algorithm solves query merging instances.
	Algorithm = core.Algorithm
	// Partition is the Bell-number exhaustive search of §6.1.1.
	Partition = core.Partition
	// PairMerge is the greedy pair merging algorithm of §6.2.1.
	PairMerge = core.PairMerge
	// NoMerge never merges (the §1 strawman baseline).
	NoMerge = core.NoMerge
)

// NewInstance builds a merging instance over geographic queries with the
// given model, merge procedure and size estimator.
func NewInstance(model Model, qs []Query, proc MergeProcedure, est Estimator) *Instance {
	return core.NewGeomInstance(model, qs, proc, est)
}

// Relation substrate.
type (
	// Relation is the in-memory spatial relation.
	Relation = relation.Relation
	// Estimator predicts answer sizes for the cost model.
	Estimator = relation.Estimator
	// UniformEstimator assumes uniformly distributed tuples.
	UniformEstimator = relation.Uniform
)

// NewRelation creates a spatial relation over the bounds with an nx × ny
// grid index. It panics if the bounds are empty or nx or ny is below 1.
func NewRelation(bounds Rect, nx, ny int) *Relation {
	return relation.MustNew(bounds, nx, ny)
}

// Network is the simulated multicast network.
type Network = multicast.Network

// NewNetwork creates a multicast network with the given channel count.
func NewNetwork(channels int) (*Network, error) { return multicast.NewNetwork(channels) }

// Server and client runtimes.
type (
	// Server owns subscriptions and the merge/publish cycle.
	Server = server.Server
	// ServerConfig selects the server's policies.
	ServerConfig = server.Config
	// Cycle is one planned dissemination round.
	Cycle = server.Cycle
	// PublishReport summarizes one publish round.
	PublishReport = server.Report
	// Client consumes merged answers and applies extractors.
	Client = client.Client
)

// NewServer creates a subscription server over a relation and network.
func NewServer(rel *Relation, net *Network, cfg ServerConfig) (*Server, error) {
	return server.New(rel, net, cfg)
}

// NewClient creates a client with the given id and subscription queries.
func NewClient(id int, qs ...Query) *Client { return client.New(id, qs...) }

// Channel allocation.
type (
	// AllocProblem is one channel allocation instance. It caches the
	// group costs every allocator run over it computes, without a lock:
	// use one AllocProblem from one goroutine, and separate ones to
	// allocate in parallel.
	AllocProblem = chanalloc.Problem
	// Allocation maps clients to channels.
	Allocation = chanalloc.Allocation
	// AllocStrategy picks the §8.2 initial distribution.
	AllocStrategy = chanalloc.Strategy
)

// Channel allocation strategies (Fig 18).
const (
	SmartInit  = chanalloc.SmartInit
	RandomInit = chanalloc.RandomInit
	BestOfBoth = chanalloc.BestOfBoth
)

// AllocExhaustive returns the optimal allocation by exhaustive search.
func AllocExhaustive(p *AllocProblem) (Allocation, float64, error) {
	return chanalloc.Exhaustive(p)
}

// AllocHeuristic runs the §8.2 hill-climbing heuristic.
func AllocHeuristic(p *AllocProblem, s AllocStrategy, seed int64) (Allocation, float64, error) {
	return chanalloc.Heuristic(p, s, seed)
}

// AllocChannelCost merges the queries of the given clients (by index into
// the problem's client list) and returns that channel's cost and plan.
func AllocChannelCost(p *AllocProblem, clients []int) (float64, Plan) {
	return chanalloc.ChannelCost(p, clients)
}

// Workload generation.
type (
	// WorkloadConfig controls clustered query generation (§9.1).
	WorkloadConfig = workload.Config
	// WorkloadGenerator produces queries and client subscriptions.
	WorkloadGenerator = workload.Generator
)

// DefaultWorkload returns the harness's default workload parameters.
func DefaultWorkload() WorkloadConfig { return workload.DefaultConfig() }

// NewWorkload validates the configuration and returns a generator.
func NewWorkload(cfg WorkloadConfig) (*WorkloadGenerator, error) {
	return workload.NewGenerator(cfg)
}
