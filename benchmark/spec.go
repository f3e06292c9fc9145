package main

import (
	"encoding/json"
	"fmt"
	"io"

	"qsub/internal/cost"
	"qsub/internal/shard"
)

// This file is the single table the benchmark is defined by: the
// workloads with their frozen sizes, and every metric with its unit,
// direction and (for end-to-end metrics) regression bound. -list prints
// it, -manifest turns it into BENCHMARK.json, and a test fails when the
// committed BENCHMARK.json or the names a run emits drift from it.

// runSeconds is how long one run measures (the contract's run_seconds).
const runSeconds = 10

const (
	lower  = "lower"
	higher = "higher"
)

// metricSpec describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may get worse; per-layer
// metrics have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Doc    string
}

// endToEnd are the metrics a user of the system would see. Every
// workload reports all of them in an untraced run. failed_share is
// reported beside them but is not in this table: it must stay 0, and the
// contract carries it as failed/attempted instead of a bounded metric.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25, "median wall time of one full set-up: relation build, listen, connect, subscribe, bootstrap plan and publish, warm-up cycles"},
	{"cycle_ms_p50", "ms", lower, 0.25, "median dissemination-cycle wall time: driver applies the change -> RunCycle (or Plan+Publish) -> last subscriber's extractor returns"},
	{"cycle_ms_p90", "ms", lower, 0.25, "90th percentile of the same cycle wall time"},
	{"deliver_ms_p50", "ms", lower, 0.25, "median per-frame PublishedUnixNano -> extractor return, exact percentile over per-session sample buffers"},
	{"frames_per_s", "1/s", higher, 0.25, "answer frames extracted by clients divided by the summed wall time of the measured cycles"},
	{"cpu_ms_per_cycle", "ms", lower, 0.25, "process user+sys CPU (getrusage) over the measured cycles divided by their count"},
	{"alloc_mb_per_cycle", "MB", lower, 0.10, "heap bytes allocated over the measured cycles divided by their count"},
	{"cost_per_cycle", "cost", lower, 0.10, "realized K_M*messages + K_T*payload_bytes + K_U*irrelevant_bytes per cycle (K_M includes K6 per channel listener), the units of Cycle.EstimatedCost"},
}

// perLayer are the single-layer metrics of the traced run, named
// <package>.<metric>. A workload that bypasses a layer reports 0 for it.
var perLayer = []metricSpec{
	{"server.plan_ms_p50", "ms", lower, 0, "median Server.Plan wall time (direct timing in plan-paper, CycleRecord.PlanSeconds elsewhere)"},
	{"server.publish_ms_p50", "ms", lower, 0, "median Publish/PublishDelta wall time (ledger encode+fanout stages for daemon workloads)"},
	{"server.plan_cost_ratio", "ratio", lower, 0, "EstimatedCost/InitialCost of the plans in use: what merging is predicted to save"},
	{"server.cost_realized_vs_predicted", "ratio", lower, 0, "realized cost of full publishes divided by the plan's EstimatedCost"},
	{"server.messages_per_cycle", "count", lower, 0, "merged answers published per measured cycle"},
	{"server.payload_bytes_per_cycle", "B", lower, 0, "payload bytes published per measured cycle"},
	{"server.irrelevant_tuples_per_cycle", "count", lower, 0, "realized U(Q,M) per measured cycle, in tuples"},

	{"core.pairmerge_ms", "ms", lower, 0, "replay of core.PairMerge.Solve on the last population with a fresh cost.Memo"},
	{"core.heap_pops_per_plan", "count", lower, 0, "pair-merge candidate heap pops per plan"},
	{"core.merges_per_plan", "count", lower, 0, "accepted merges per plan"},

	{"chanalloc.heuristic_ms", "ms", lower, 0, "replay of chanalloc.Heuristic(BestOfBoth) on the last population"},
	{"chanalloc.group_cache_hit_ratio", "ratio", higher, 0, "channel-group cost cache hits / lookups"},
	{"chanalloc.restarts_per_plan", "count", lower, 0, "multi-start restarts per plan"},

	{"cost.memo_hit_ratio", "ratio", higher, 0, "merged-size memo hits / lookups"},
	{"cost.memo_misses_per_plan", "count", lower, 0, "merged-size memo misses per plan; each is one estimator probe"},

	{"relation.estimate_us_per_probe", "us", lower, 0, "replay of relation.Exact.SizeBytes over the plan's merged regions"},
	{"relation.estimate_probes_per_plan", "count", lower, 0, "estimator probes per plan: memo misses plus one per query"},
	{"relation.delta_probe_ms", "ms", lower, 0, "replay of rel.Delta(since) + SearchAppend/MatchDeletedAppend over the merged regions"},
	{"relation.delta_batch_tuples", "count", lower, 0, "inserted tuples in the captured cycle's delta batch"},

	{"shard.plan_ms", "ms", lower, 0, "replay of shard.Plan on the current subscriptions"},
	{"shard.aggregate_ms", "ms", lower, 0, "replay of shard.Aggregate on the current subscriptions"},
	{"shard.reps_per_query", "ratio", lower, 0, "aggregation representatives / subscriptions"},

	{"wire.encode_ms_per_cycle", "ms", lower, 0, "CycleRecord.EncodeSeconds per measured cycle"},
	{"wire.encodes_per_cycle", "count", lower, 0, "frames marshalled per measured cycle; must equal messages"},
	{"wire.encode_ns_per_frame", "ns", lower, 0, "replay of MarshalMessageAppend on the captured cycle's messages"},
	{"wire.decode_ns_per_frame", "ns", lower, 0, "replay of UnmarshalMessage on the captured cycle's frames"},
	{"wire.frame_bytes_p50", "B", lower, 0, "median frame size of the captured cycle"},

	{"multicast.handoff_ms_per_cycle", "ms", lower, 0, "CycleRecord.FanoutSeconds per measured cycle: query execution plus ring hand-off"},
	{"multicast.publishbatch_ns_per_delivery", "ns", lower, 0, "replay of PublishBatch of the captured messages into equally many batch rings drained by no-op readers"},
	{"multicast.deliveries_per_cycle", "count", lower, 0, "message copies handed to subscriber rings per measured cycle"},
	{"multicast.dropped", "count", lower, 0, "deliveries dropped; must be 0"},
	{"multicast.evictions", "count", lower, 0, "slow-consumer evictions; must be 0"},

	{"daemon.write_ms_per_cycle", "ms", lower, 0, "CycleRecord.WriteSeconds per measured cycle: publish return -> last frame handed to the kernel"},
	{"daemon.frames_per_flush", "count", higher, 0, "answer frames per socket flush: the write-coalescing factor"},
	{"daemon.bytes_written_per_cycle", "B", lower, 0, "frame bytes the root daemon wrote to sockets per measured cycle"},
	{"daemon.max_queue_depth", "count", lower, 0, "deepest per-session delivery queue seen at a cycle end"},
	{"daemon.max_seq_lag", "count", lower, 0, "largest per-session sequence lag seen at a cycle end"},
	{"daemon.sessions_evicted", "count", lower, 0, "sessions the daemon evicted; must be 0"},
	{"daemon.rebind_ms", "ms", lower, 0, "median RunCycle wall minus plan and publish: rebinding sessions and sending Assigned"},
	{"daemon.writev_floor_ms", "ms", lower, 0, "yardstick: the captured cycle's frames written with net.Buffers.WriteTo at the same batching to equally many loopback sinks"},

	{"relay.ingest_frames_per_cycle", "count", lower, 0, "frames the relay tier received from the root per measured cycle"},
	{"relay.frames_written_per_cycle", "count", lower, 0, "frames the relay tier wrote to sessions per measured cycle"},
	{"relay.bytes_per_cycle", "B", lower, 0, "bytes the relay tier wrote to sessions per measured cycle"},
	{"relay.root_egress_bytes_per_cycle", "B", lower, 0, "bytes the root wrote to relay feeds per measured cycle"},
	{"relay.reconnects", "count", lower, 0, "upstream feed reconnects; must be 0"},

	{"netclient.deliver_ms_p90", "ms", lower, 0, "90th percentile of per-frame delivery latency"},
	{"netclient.deliver_ms_p99", "ms", lower, 0, "99th percentile of per-frame delivery latency"},
	{"netclient.deliver_ms_max", "ms", lower, 0, "largest sampled per-frame delivery latency"},
	{"netclient.seq_gaps", "count", lower, 0, "sequence gaps clients detected; must be 0"},
	{"netclient.refreshes", "count", lower, 0, "full-refresh requests clients sent; must be 0"},
	{"netclient.reconnects", "count", lower, 0, "session reconnects; must be 0"},

	{"client.handle_ns_per_frame", "ns", lower, 0, "replay of client.Handle over one session's captured messages per channel"},
	{"client.kept_tuples_per_cycle", "count", lower, 0, "tuples at least one query kept, per measured cycle"},
	{"client.filtered_messages_per_cycle", "count", lower, 0, "messages clients discarded as unaddressed, per measured cycle"},
	{"client.useful_ratio", "ratio", higher, 0, "relevant bytes / bytes received by clients: the paper's waste, inverted"},

	{"proc.peak_rss_mb", "MB", lower, 0, "peak resident set size of the process"},
	{"proc.gc_pause_ms_total", "ms", lower, 0, "stop-the-world GC pause total over the measured cycles"},
	{"proc.gc_cycles", "count", lower, 0, "GC cycles over the measured cycles"},
	{"proc.goroutines_peak", "count", lower, 0, "most goroutines seen at a cycle end"},

	{"trace.cycle_ms_p50", "ms", lower, 0, "cycle_ms_p50 of the traced run; over the untraced value it is the tracing overhead"},
	{"budget.residual_share", "ratio", lower, 0, "share of cycle wall time no layer span covers (RunCycle bookkeeping and gaps between spans)"},
}

// sizes are one workload's frozen dimensions.
type sizes struct {
	Sessions         int // TCP sessions (in-process subscribers in plan-paper)
	Channels         int
	Relays           int // >0: sessions dial this many in-process relays
	QueriesPerClient int
	Tuples           int // relation size after set-up
	PayloadBytes     int
	Inserts          int // tuples inserted per cycle
	Deletes          int // tuples deleted per cycle
	Swaps            int // subscriptions swapped per cycle
	Warmup           int // discarded cycles at the end of set-up
	VerifyEvery      int // answers are verified after every this many cycles, and after the last
	LatencyStride    int // every this-many-th frame of a session is a latency sample
}

func (s sizes) String() string {
	out := fmt.Sprintf("%d sessions x %d channels, %d queries/client, %d tuples of %d payload bytes",
		s.Sessions, s.Channels, s.QueriesPerClient, s.Tuples, s.PayloadBytes)
	if s.Relays > 0 {
		out += fmt.Sprintf(", %d relays", s.Relays)
	}
	out += fmt.Sprintf("; per cycle +%d -%d tuples, %d swaps; %d warm-up cycles", s.Inserts, s.Deletes, s.Swaps, s.Warmup)
	return out
}

// workloadSpec is one workload: why it exists, its frozen sizes, and the
// planner configuration it runs under.
type workloadSpec struct {
	Name string
	Why  string
	// Full are the frozen sizes; Smoke the scaled-down ones the tests use.
	Full, Smoke sizes
	Model       cost.Model
	Sharding    shard.Config
	// Clustered selects the paper's §9 query generator (CF 0.7, DF 40,
	// extents 20-80 on a 1000x1000 database); false gives every session
	// one disjoint unit-cell query.
	Clustered bool
	// SF is the generator's cluster size factor: 1/SF cluster origins per
	// population.
	SF   float64
	DupF float64
}

// paperModel is the cost model of the clustered workloads.
var paperModel = cost.Model{KM: 500, KT: 1, KU: 1, K6: 2}

var workloads = []workloadSpec{
	{
		Name:  "fanout-direct",
		Why:   "256 TCP sessions x 8 channels, 8192 one-tuple frames per cycle, KM=0: per-frame cost in multicast, daemon writers, wire and netclient dominates; planner, relation and extractor do almost nothing",
		Full:  sizes{Sessions: 256, Channels: 8, QueriesPerClient: 1, Tuples: 256, PayloadBytes: 1, Inserts: 256, Warmup: 20, VerifyEvery: 500, LatencyStride: 7},
		Smoke: sizes{Sessions: 16, Channels: 4, QueriesPerClient: 1, Tuples: 16, PayloadBytes: 1, Inserts: 16, Warmup: 1, VerifyEvery: 2, LatencyStride: 1},
		// KM = K6 = 0: merging never pays, so every query stays its own message.
		Model:    cost.Model{KM: 0, KT: 1, KU: 1, K6: 0},
		Sharding: shard.Config{Enabled: true, ShardBits: 8},
	},
	{
		Name:     "fanout-relay",
		Why:      "same 256 sessions and cycles through 2 in-process relays: the relay's writers do the session work while the root writes 2 feeds, so a gain for one writer path that costs the other shows",
		Full:     sizes{Sessions: 256, Channels: 8, Relays: 2, QueriesPerClient: 1, Tuples: 256, PayloadBytes: 1, Inserts: 256, Warmup: 20, VerifyEvery: 500, LatencyStride: 7},
		Smoke:    sizes{Sessions: 16, Channels: 4, Relays: 2, QueriesPerClient: 1, Tuples: 16, PayloadBytes: 1, Inserts: 16, Warmup: 1, VerifyEvery: 2, LatencyStride: 1},
		Model:    cost.Model{KM: 0, KT: 1, KU: 1, K6: 0},
		Sharding: shard.Config{Enabled: true, ShardBits: 8},
	},
	{
		Name:      "merge-deliver",
		Why:       "1000 clustered queries, 250 sessions, 8 channels, 100k tuples, +1000/-200 per cycle, planned once: relation delta probes, publish, multi-tuple encode and client extraction work; solvers idle",
		Full:      sizes{Sessions: 250, Channels: 8, QueriesPerClient: 4, Tuples: 100000, PayloadBytes: 16, Inserts: 1000, Deletes: 200, Warmup: 20, VerifyEvery: 100, LatencyStride: 7},
		Smoke:     sizes{Sessions: 12, Channels: 4, QueriesPerClient: 4, Tuples: 4000, PayloadBytes: 16, Inserts: 100, Deletes: 20, Warmup: 1, VerifyEvery: 2, LatencyStride: 1},
		Model:     paperModel,
		Sharding:  shard.Config{Enabled: true, ShardBits: 4, Aggregate: true},
		Clustered: true,
		SF:        0.02,
		DupF:      0.2,
	},
	{
		Name:      "plan-paper",
		Why:       "48 queries, 24 clients, 3 channels, 20k tuples, no sockets, new population each cycle: exact PairMerge, BestOfBoth allocation and estimator probes are the cycle; delivery is negligible",
		Full:      sizes{Sessions: 24, Channels: 3, QueriesPerClient: 2, Tuples: 20000, PayloadBytes: 16, Warmup: 20, VerifyEvery: 1, LatencyStride: 1},
		Smoke:     sizes{Sessions: 6, Channels: 2, QueriesPerClient: 2, Tuples: 2000, PayloadBytes: 16, Warmup: 1, VerifyEvery: 1, LatencyStride: 1},
		Model:     paperModel,
		Clustered: true,
		SF:        0.25,
	},
	{
		Name:      "churn-sharded",
		Why:       "400 queries, 100 sessions, 8 channels, 40k tuples; 8 subscriptions swapped over the wire and 400 inserts per cycle, so every cycle replans (sharded), rebinds, sends Assigned, delta-publishes",
		Full:      sizes{Sessions: 100, Channels: 8, QueriesPerClient: 4, Tuples: 40000, PayloadBytes: 16, Inserts: 400, Swaps: 8, Warmup: 20, VerifyEvery: 100, LatencyStride: 1},
		Smoke:     sizes{Sessions: 10, Channels: 4, QueriesPerClient: 4, Tuples: 4000, PayloadBytes: 16, Inserts: 100, Swaps: 2, Warmup: 1, VerifyEvery: 2, LatencyStride: 1},
		Model:     paperModel,
		Sharding:  shard.Config{Enabled: true, ShardBits: 4, Aggregate: true},
		Clustered: true,
		SF:        0.02,
		DupF:      0.2,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// manifest is BENCHMARK.json, generated from the tables above.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // per-layer metrics have none
}

func newManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.Name, w.Why})
	}
	for _, e := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{e.Name, e.Unit, e.Better, e.Bound})
	}
	for _, l := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{l.Name, l.Unit, l.Better, 0})
	}
	return m
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(newManifest())
}

// list prints every metric and workload straight from the tables.
func list(w io.Writer) {
	fmt.Fprintf(w, "workloads (run_seconds %d):\n", runSeconds)
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n  %-14s why: %s\n", wl.Name, wl.Full, "", wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (untraced run; every workload reports all):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-36s %-6s %-6s is better, bound %4.0f%%  %s\n", m.Name, m.Unit, m.Better, 100*m.Bound, m.Doc)
	}
	fmt.Fprintf(w, "  %-36s %-6s %-6s is better, must stay 0   failed / attempted (client, frame) deliveries and (client, query) answers\n", "failed_share", "ratio", lower)
	fmt.Fprintln(w, "per-layer metrics (traced run; no bound):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-36s %-6s %-6s is better              %s\n", m.Name, m.Unit, m.Better, m.Doc)
	}
}
