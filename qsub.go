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
//   - query merging algorithms (exhaustive, partition, pair merging,
//     directed search, clustering) over an abstract cost model
//   - merge procedures (bounding rectangle, bounding polygon, banded
//     hull, exact)
//   - a spatial relation with grid index and selectivity estimators
//   - channel allocation (exhaustive and hill-climbing heuristics)
//   - a multicast network simulator with per-byte accounting
//   - a clustered workload generator and the paper's experiment harness
//
// # Quick start
//
//	rel := qsub.NewRelation(qsub.R(0, 0, 1000, 1000), 20, 20)
//	rel.Insert(qsub.Pt(100, 100), []byte("object"))
//	net, _ := qsub.NewNetwork(1)
//	srv, _ := qsub.NewServer(rel, net, qsub.ServerConfig{Model: qsub.DefaultModel()})
//	q := qsub.RangeQuery(1, qsub.R(50, 50, 150, 150))
//	srv.Subscribe(0, q)
//	cycle, _ := srv.Plan()
//	// subscribe clients to their channels, then:
//	srv.Publish(cycle)
//
// See the examples directory for complete programs.
package qsub

import (
	"io"

	"qsub/internal/chanalloc"
	"qsub/internal/client"
	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/daemon"
	"qsub/internal/experiment"
	"qsub/internal/geom"
	"qsub/internal/interval"
	"qsub/internal/multicast"
	"qsub/internal/netclient"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/server"
	"qsub/internal/shard"
	"qsub/internal/trace"
	"qsub/internal/workload"
)

// Geometry kernel.
type (
	// Point is a location in the two-dimensional attribute space.
	Point = geom.Point
	// Rect is a closed axis-aligned rectangle.
	Rect = geom.Rect
	// Region is the geometric footprint of a query.
	Region = geom.Region
	// Polygon is a convex polygon region.
	Polygon = geom.Polygon
	// UnionRegion is a region formed by a union of rectangles.
	UnionRegion = geom.Union
)

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

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
	// BoundingPolygon is the convex bounding polygon procedure (Fig 5b).
	BoundingPolygon = query.BoundingPolygon
	// ExactMerge is the zero-irrelevant-information procedure (Fig 5c).
	ExactMerge = query.Exact
)

// RangeQuery constructs a geographic range query over a rectangle.
func RangeQuery(id QueryID, r Rect) Query { return query.Range(id, r) }

// MergeProcedures returns the three merge procedures of Fig 5.
func MergeProcedures() []MergeProcedure { return query.Procedures() }

// Cost model.
type (
	// Model holds the cost model constants K_M, K_T, K_U (§4) plus the
	// channel-allocation extensions K_D and K6.
	Model = cost.Model
	// Sizer abstracts answer-size estimation over query indices.
	Sizer = cost.Sizer
)

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
	// Exhaustive is the doubly-exponential search of §6.1.
	Exhaustive = core.Exhaustive
	// Partition is the Bell-number exhaustive search of §6.1.1.
	Partition = core.Partition
	// PairMerge is the greedy pair merging algorithm of §6.2.1.
	PairMerge = core.PairMerge
	// DirectedSearch is the restart-based local search of §6.2.2.
	DirectedSearch = core.DirectedSearch
	// Clustering is the divide-and-conquer pruning of §6.3.
	Clustering = core.Clustering
	// NoMerge never merges (the §1 strawman baseline).
	NoMerge = core.NoMerge
	// Incremental maintains a plan across query arrivals and
	// departures (§11).
	Incremental = core.Incremental
)

// NewInstance builds a merging instance over geographic queries with the
// given model, merge procedure and size estimator.
func NewInstance(model Model, qs []Query, proc MergeProcedure, est Estimator) *Instance {
	return core.NewGeomInstance(model, qs, proc, est)
}

// NewIncremental starts incremental maintenance from an existing plan.
func NewIncremental(inst *Instance, plan Plan) *Incremental {
	return core.NewIncremental(inst, plan)
}

// Singletons returns the no-merging plan for n queries.
func Singletons(n int) Plan { return core.Singletons(n) }

// Performance is the §9.2 distance-to-optimal metric.
func Performance(initial, optimum, heuristic float64) float64 {
	return core.Performance(initial, optimum, heuristic)
}

// Relation substrate.
type (
	// Relation is the in-memory spatial relation.
	Relation = relation.Relation
	// Tuple is one stored object.
	Tuple = relation.Tuple
	// Estimator predicts answer sizes for the cost model.
	Estimator = relation.Estimator
	// ExactEstimator counts actual matching tuples.
	ExactEstimator = relation.Exact
	// UniformEstimator assumes uniformly distributed tuples.
	UniformEstimator = relation.Uniform
	// HistogramEstimator summarizes skewed data per bucket.
	HistogramEstimator = relation.Histogram
)

// NewRelation creates a spatial relation over the bounds with an nx × ny
// grid index; it panics on invalid arguments (use relation.New via the
// server for error returns).
func NewRelation(bounds Rect, nx, ny int) *Relation {
	return relation.MustNew(bounds, nx, ny)
}

// BuildHistogram summarizes a relation into an equi-width histogram
// estimator.
func BuildHistogram(rel *Relation, nx, ny int) (*HistogramEstimator, error) {
	return relation.BuildHistogram(rel, nx, ny)
}

// Multicast network.
type (
	// Network is the simulated multicast network.
	Network = multicast.Network
	// NetworkStats aggregates traffic counters.
	NetworkStats = multicast.Stats
	// Message is one merged answer on a channel.
	Message = multicast.Message
	// HeaderEntry addresses one client within a message.
	HeaderEntry = multicast.HeaderEntry
	// Subscription is a client's attachment to a channel.
	Subscription = multicast.Subscription
	// NetworkOption configures a network.
	NetworkOption = multicast.Option
)

// NewNetwork creates a multicast network with the given channel count.
func NewNetwork(channels int, opts ...NetworkOption) (*Network, error) {
	return multicast.NewNetwork(channels, opts...)
}

// WithLoss injects random delivery loss for failure testing.
func WithLoss(rate float64, seed int64) NetworkOption { return multicast.WithLoss(rate, seed) }

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
	// ClientStats is the client-side accounting.
	ClientStats = client.Stats
)

// NewServer creates a subscription server over a relation and network.
func NewServer(rel *Relation, net *Network, cfg ServerConfig) (*Server, error) {
	return server.New(rel, net, cfg)
}

// NewClient creates a client with the given id and subscription queries.
func NewClient(id int, qs ...Query) *Client { return client.New(id, qs...) }

// Sharded planning pipeline: subscription aggregation, Morton-sharded
// concurrent solving, and traffic-weighted channel balancing for
// 100k+-subscription workloads. Enable it per server via
// ServerConfig.Sharding, or run it standalone with ShardPlan.
type (
	// ShardConfig selects the sharded pipeline's policies.
	ShardConfig = shard.Config
	// ShardProblem is one standalone sharded planning instance.
	ShardProblem = shard.Problem
	// ShardResult is the stitched global plan with pipeline statistics.
	ShardResult = shard.Result
	// ShardStats summarizes what the pipeline did.
	ShardStats = shard.Stats
	// ShardAggregation is the representative set of an aggregation pass.
	ShardAggregation = shard.Aggregation
)

// ShardPlan runs aggregate → shard → solve → stitch on one problem.
func ShardPlan(p *ShardProblem) (*ShardResult, error) { return shard.Plan(p) }

// AggregateQueries collapses covered and near-duplicate queries into
// representatives (slack ≤ 0 selects the default pitch of 1/128).
func AggregateQueries(qs []Query, slack float64) ShardAggregation {
	return shard.Aggregate(qs, slack)
}

// Channel allocation.
type (
	// AllocProblem is one channel allocation instance.
	AllocProblem = chanalloc.Problem
	// Allocation maps clients to channels.
	Allocation = chanalloc.Allocation
	// AllocStrategy picks the §8.2 initial distribution.
	AllocStrategy = chanalloc.Strategy
)

// Channel allocation strategies (Fig 18).
const (
	SmartInit      = chanalloc.SmartInit
	RandomInit     = chanalloc.RandomInit
	BestOfBoth     = chanalloc.BestOfBoth
	MultiStartInit = chanalloc.MultiStartInit
)

// AllocExhaustive returns the optimal allocation by exhaustive search.
func AllocExhaustive(p *AllocProblem) (Allocation, float64, error) {
	return chanalloc.Exhaustive(p)
}

// AllocHeuristic runs the §8.2 hill-climbing heuristic.
func AllocHeuristic(p *AllocProblem, s AllocStrategy, seed int64) (Allocation, float64, error) {
	return chanalloc.Heuristic(p, s, seed)
}

// AllocMultiStart runs the parallel multi-start hill climb: the Fig 14
// smart seed plus seven random seeds, cheapest local minimum wins.
// A fixed seed yields the same allocation at any GOMAXPROCS.
func AllocMultiStart(p *AllocProblem, seed int64) (Allocation, float64, error) {
	return chanalloc.MultiStart(p, seed)
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

// Experiments (the paper's evaluation, §9).
type (
	// MergeExperiment parameterizes the Fig 16/17 sweep.
	MergeExperiment = experiment.MergeConfig
	// MergeExperimentRow is one row of the Fig 16/17 series.
	MergeExperimentRow = experiment.MergeResult
	// ChannelExperiment parameterizes the Fig 18/19 comparison.
	ChannelExperiment = experiment.ChannelConfig
	// ChannelExperimentRow is one strategy's result row.
	ChannelExperimentRow = experiment.ChannelResult
)

// RunMergeExperiment reproduces the Fig 16/17 data.
func RunMergeExperiment(cfg MergeExperiment) ([]MergeExperimentRow, error) {
	return experiment.RunMergeOptimality(cfg)
}

// RunChannelExperiment reproduces the Fig 18/19 data.
func RunChannelExperiment(cfg ChannelExperiment) ([]ChannelExperimentRow, error) {
	return experiment.RunChannelAllocation(cfg)
}

// AllocChannelCost merges the queries of the given clients (by index into
// the problem's client list) and returns that channel's cost and plan.
func AllocChannelCost(p *AllocProblem, clients []int) (float64, Plan) {
	return chanalloc.ChannelCost(p, clients)
}

// Query splitting (§11 future work).
type (
	// CoverPlan is the result of split optimization: transmitted sets
	// plus covered-query assignments.
	CoverPlan = core.CoverPlan
)

// SplitQueries refines a plan by dropping transmissions whose queries are
// covered by the remaining merged answers (§11 query splitting).
func SplitQueries(model Model, qs []Query, proc MergeProcedure, est Estimator, base Plan) CoverPlan {
	return core.SplitQueries(model, qs, proc, est, base)
}

// Estimator ablation experiment.
type (
	// EstimatorExperiment parameterizes the size-estimation ablation.
	EstimatorExperiment = experiment.EstimatorConfig
	// EstimatorExperimentRow is one estimator's result.
	EstimatorExperimentRow = experiment.EstimatorResult
)

// RunEstimatorExperiment measures the true-cost penalty of planning with
// approximate size estimators on skewed data.
func RunEstimatorExperiment(cfg EstimatorExperiment) ([]EstimatorExperimentRow, error) {
	return experiment.RunEstimatorAblation(cfg)
}

// Additional merging heuristics.
type (
	// Anneal is the simulated-annealing refinement of directed search.
	Anneal = core.Anneal
	// ZOrderSweep is the space-filling-curve contiguous-run heuristic.
	ZOrderSweep = core.ZOrderSweep
)

// One-dimensional interval subscriptions (the §1 introduction example).
type (
	// Interval is a closed 1-D range subscription.
	Interval = interval.Interval
	// IntervalPlan is the result of the contiguous interval DP.
	IntervalPlan = interval.Plan
)

// MergeIntervals computes the cheapest contiguous-run partition of 1-D
// range subscriptions in O(n²); exact for proper (non-nested) families.
func MergeIntervals(model Model, ivs []Interval, density float64) IntervalPlan {
	return interval.MergeContiguous(model, ivs, density)
}

// NewIntervalInstance builds a merging instance over 1-D intervals for
// use with the generic algorithms.
func NewIntervalInstance(model Model, ivs []Interval, density float64) *Instance {
	return interval.Instance(model, ivs, density)
}

// Algorithm comparison experiment.
type (
	// AlgoExperiment parameterizes the heuristic comparison.
	AlgoExperiment = experiment.AlgoConfig
	// AlgoExperimentRow is one algorithm's aggregate result.
	AlgoExperimentRow = experiment.AlgoResult
)

// RunAlgoExperiment compares every merging heuristic against the
// Partition optimum.
func RunAlgoExperiment(cfg AlgoExperiment) ([]AlgoExperimentRow, error) {
	return experiment.RunAlgoComparison(cfg)
}

// Networked deployment (the qsubd wire protocol).
type (
	// Daemon is the TCP subscription daemon.
	Daemon = daemon.Daemon
	// DaemonConn is the client side of a daemon session.
	DaemonConn = daemon.Conn
	// DaemonEvent is one server-pushed frame.
	DaemonEvent = daemon.Event
)

// NewDaemon creates a subscription daemon over a relation.
func NewDaemon(rel *Relation, channels int, cfg ServerConfig) (*Daemon, error) {
	return daemon.New(rel, channels, cfg)
}

// DialDaemon connects to a running daemon as the given client.
func DialDaemon(addr string, clientID int) (*DaemonConn, error) {
	return daemon.Dial(addr, clientID)
}

// Resilient client runtime: reconnect with backoff, automatic
// resubscription and gap recovery.
type (
	// ResilientClient drives daemon sessions across failures.
	ResilientClient = netclient.Client
	// ResilientConfig parameterizes a resilient client.
	ResilientConfig = netclient.Config
	// ResilientStats counts reconnects, dial failures and refreshes.
	ResilientStats = netclient.Stats
)

// NewResilientClient builds a resilient daemon client; call Run to start
// the connect/serve/backoff loop.
func NewResilientClient(cfg ResilientConfig) (*ResilientClient, error) {
	return netclient.New(cfg)
}

// Predicate is an attribute selection applied client-side as part of the
// extractor.
type Predicate = query.Predicate

// FilteredQuery constructs a range query with an attribute predicate,
// e.g. σ(region ∧ type='tank')R. The predicate never crosses the wire:
// merging operates on the region and the client applies the filter during
// extraction.
func FilteredQuery(id QueryID, r Rect, filter Predicate) Query {
	return query.Filtered(id, r, filter)
}

// Periodic scheduling (the general §3.1 timing model).
type (
	// Scheduler partitions subscriptions into period groups, merging
	// within each group and firing groups on their period ticks.
	Scheduler = server.Scheduler
	// TickReport summarizes the groups that fired on one tick.
	TickReport = server.TickReport
)

// NewScheduler creates a periodic scheduler over a relation and network.
func NewScheduler(rel *Relation, net *Network, cfg ServerConfig) (*Scheduler, error) {
	return server.NewScheduler(rel, net, cfg)
}

// Persistence.

// WriteSnapshot is re-exported via the Relation alias; see
// Relation.WriteSnapshot. ReadSnapshot restores a relation from a
// snapshot stream with an nx × ny grid index.
func ReadSnapshot(r io.Reader, nx, ny int) (*Relation, error) {
	return relation.ReadSnapshot(r, nx, ny)
}

// DriftMonitor closes the loop between size estimates and published
// bytes, signalling when database churn justifies a re-plan (§11 dynamic
// scenario).
type DriftMonitor = server.DriftMonitor

// Control-plane tracing.
type (
	// TraceRecorder records control-plane events as JSON lines.
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded control-plane event.
	TraceEvent = trace.Event
)

// NewTraceRecorder creates a trace recorder on w; now supplies Unix-milli
// timestamps (pass nil for zero timestamps in deterministic tests).
func NewTraceRecorder(w io.Writer, now func() int64) *TraceRecorder {
	return trace.NewRecorder(w, now)
}

// ReadTrace parses a JSONL trace back into events.
func ReadTrace(r io.Reader) ([]TraceEvent, error) { return trace.Read(r) }

// Scaling and re-planning experiments.
type (
	// ScalingExperiment parameterizes the §1 duplicate-subscription sweep.
	ScalingExperiment = experiment.ScalingConfig
	// ScalingExperimentRow is one fan-out's result.
	ScalingExperimentRow = experiment.ScalingRow
	// ReplanExperiment parameterizes the re-planning policy ablation.
	ReplanExperiment = experiment.ReplanConfig
	// ReplanExperimentRow is one policy's outcome.
	ReplanExperimentRow = experiment.ReplanRow
)

// RunScalingExperiment evaluates the §1 n-identical-queries case.
func RunScalingExperiment(cfg ScalingExperiment) ([]ScalingExperimentRow, error) {
	return experiment.RunScaling(cfg)
}

// RunReplanExperiment compares never/always/drift re-planning policies
// under database churn.
func RunReplanExperiment(cfg ReplanExperiment) ([]ReplanExperimentRow, error) {
	return experiment.RunReplanAblation(cfg)
}

// Projection maps a tuple's payload to the projected payload, applied
// client-side during extraction (§3.1's "selections and projections").
type Projection = query.Projection

// ValidateCycle checks a planned cycle's structural invariants.
func ValidateCycle(cy *Cycle, channels int) error { return server.ValidateCycle(cy, channels) }
