package metrics

// Standard bucket layouts for the catalog's histograms.
var (
	// LatencyBuckets covers 100µs .. 5s in a coarse log scale, in seconds.
	LatencyBuckets = []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
	}
	// SizeBuckets covers batch/tuple counts 1 .. 64k in powers of four.
	SizeBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}
	// CostBuckets covers solver objective values across nine decades.
	CostBuckets = []float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
)

// Catalog is the full set of pre-registered qsub instruments, one
// Registry behind them. Every field is safe to hand out as a nil-safe
// handle; a nil *Catalog simply leaves every handle nil, so the whole
// stack runs uninstrumented at the cost of one branch per site.
type Catalog struct {
	Registry *Registry

	// Merged sizes asked of a plan's size cache: a cost.Memo, or the
	// rank table that replaces it on exact rectangle instances (every
	// lookup a hit, counted once per pair-merge solve).
	MemoHits   *Counter
	MemoMisses *Counter

	// Solver engines (core).
	SolverHeapPops        *Counter
	SolverMerges          *Counter
	SolverRestarts        *Counter
	SolverComponents      *Counter
	SolverConvergenceCost *Histogram

	// Channel allocation (chanalloc).
	AllocRestarts         *Counter
	AllocGroupCacheHits   *Counter
	AllocGroupCacheMisses *Counter

	// Server planning and publishing. The three cost-model terms of
	// Cost(M) = K_M·|M| + K_T·size(M) + K_U·U(Q,M) surface as
	// PublishMessages (|M|), PublishTuples/PublishBytes (size(M)) and
	// IrrelevantTuples (realized U(Q,M)).
	PlansTotal       *Counter
	PlansIncremental *Counter
	PlanShardsSolved *Counter
	PlanShardsReused *Counter
	PlanSeconds      *Histogram
	PublishDeltas    *Counter
	PublishSeconds   *Histogram
	PublishMessages  *Counter
	PublishTuples    *Counter
	PublishBytes     *Counter
	IrrelevantTuples *Counter

	// Per-channel splits of the publish totals.
	ChannelMessages *Vec
	ChannelTuples   *Vec
	ChannelBytes    *Vec

	// relation delta extraction.
	DeltaBatchTuples *Histogram
	DeltaDeletions   *Counter

	// multicast fan-out. Encode-once accounting: Encodes counts frames
	// actually marshalled, FramesWritten the per-session answer frames
	// handed to the kernel (every one a shared encode-once frame), Bytes
	// their bytes. A healthy fabric keeps Encodes ≈ messages while
	// FramesWritten ≈ messages × subscribers.
	FanoutDeliveries    *Counter
	FanoutDropped       *Counter
	FanoutEvictions     *Counter
	FanoutEncodes       *Counter
	FanoutBytes         *Counter
	FanoutFramesWritten *Counter
	FanoutFlushes       *Counter

	// daemon session lifecycle. An expiry is counted by its cause:
	// read-idle or write deadline.
	SessionsEvicted      *Counter
	SessionsMoved        *Counter
	SessionsSuperseded   *Counter
	SessionsExpiredIdle  *Counter
	SessionsExpiredWrite *Counter

	// Cycle pipeline ledger: where each RunCycle's wall time goes,
	// split by stage (see CycleStages), plus per-session lag
	// watermarks recomputed at the end of every cycle.
	CycleStageSeconds    *HVec
	SessionLagSeconds    *Histogram
	SessionsConnected    *Gauge
	SessionMaxSeqLag     *Gauge
	SessionMaxQueueDepth *Gauge
	SessionMaxStaleMs    *Gauge

	// Relay tier. On a daemon, RelaySessions counts attached downstream
	// relay feeds; on a relay, the ingest counters account the upstream
	// feed (frames/bytes received, upstream reconnects) and RelayHop is
	// the relay's distance from the root publisher (0 = root).
	RelayFrames     *Counter
	RelayBytes      *Counter
	RelayReconnects *Counter
	RelayHop        *Gauge
	RelaySessions   *Gauge

	// Client-side extractor.
	ClientKeptTuples       *Counter
	ClientFilteredMessages *Counter
}

// CycleStages are the label values of the qsub_cycle_stage_seconds
// histogram vec, in pipeline order: planning (merge + allocate),
// encode-once frame marshalling, fan-out enqueue (the publish call,
// query execution included), and socket writes draining the cycle's
// frames to the kernel.
var CycleStages = []string{"plan", "encode", "fanout", "write"}

// NewCatalog builds a fresh registry with every qsub instrument
// pre-registered. channels sizes the per-channel counter vecs; pass 0
// when no channel split is needed (the vec handles become no-ops).
func NewCatalog(channels int) *Catalog {
	r := NewRegistry()
	return &Catalog{
		Registry: r,

		MemoHits:   r.Counter("qsub_memo_hits_total", "merged sizes answered without an estimator probe (memo hits, rank-table lookups)"),
		MemoMisses: r.Counter("qsub_memo_misses_total", "merged-size memo cache misses (sizes computed)"),

		SolverHeapPops:        r.Counter("qsub_solver_heap_pops_total", "pair-merge candidate heap pops"),
		SolverMerges:          r.Counter("qsub_solver_merges_total", "accepted solver merges"),
		SolverRestarts:        r.Counter("qsub_solver_restarts_total", "directed-search / clustering restarts executed"),
		SolverComponents:      r.Counter("qsub_solver_components_total", "overlap components partitioned by clustering"),
		SolverConvergenceCost: r.Histogram("qsub_solver_convergence_cost", "best objective value at solver convergence", CostBuckets),

		AllocRestarts:         r.Counter("qsub_alloc_restarts_total", "channel-allocation multi-start restarts executed"),
		AllocGroupCacheHits:   r.Counter("qsub_alloc_group_cache_hits_total", "channel-group cost cache hits"),
		AllocGroupCacheMisses: r.Counter("qsub_alloc_group_cache_misses_total", "channel-group cost cache misses (sub-solves run)"),

		PlansTotal:       r.Counter("qsub_plans_total", "multicast plans computed"),
		PlansIncremental: r.Counter("qsub_plans_incremental_total", "plans produced by churn-incremental replan"),
		PlanShardsSolved: r.Counter("qsub_plan_shards_solved_total", "(channel, shard) tasks the sharded planner solved"),
		PlanShardsReused: r.Counter("qsub_plan_shards_reused_total", "(channel, shard) tasks an incremental replan took over from the previous plan"),
		PlanSeconds:      r.Histogram("qsub_plan_seconds", "wall time of server.Plan", LatencyBuckets),
		PublishDeltas:    r.Counter("qsub_publish_deltas_total", "delta publish cycles"),
		PublishSeconds:   r.Histogram("qsub_publish_seconds", "wall time of server.Publish / PublishDelta", LatencyBuckets),
		PublishMessages:  r.Counter("qsub_publish_messages_total", "multicast messages published (|M| term)"),
		PublishTuples:    r.Counter("qsub_publish_tuples_total", "tuples shipped across all messages (size(M) term)"),
		PublishBytes:     r.Counter("qsub_publish_payload_bytes_total", "payload bytes shipped across all messages"),
		IrrelevantTuples: r.Counter("qsub_irrelevant_tuples_total", "realized U(Q,M): per-addressed-query tuples shipped outside the query region"),

		ChannelMessages: r.CounterVec("qsub_channel_messages_total", "messages published per channel", "channel", channels),
		ChannelTuples:   r.CounterVec("qsub_channel_tuples_total", "tuples published per channel", "channel", channels),
		ChannelBytes:    r.CounterVec("qsub_channel_payload_bytes_total", "payload bytes published per channel", "channel", channels),

		DeltaBatchTuples: r.Histogram("qsub_delta_batch_tuples", "inserted tuples per extracted delta batch", SizeBuckets),
		DeltaDeletions:   r.Counter("qsub_delta_deletions_total", "deleted tuple ids carried by delta batches"),

		FanoutDeliveries:    r.Counter("qsub_fanout_deliveries_total", "multicast message deliveries to subscribed sessions"),
		FanoutDropped:       r.Counter("qsub_fanout_dropped_total", "multicast deliveries dropped (loss injection or full buffer under the drop policy)"),
		FanoutEvictions:     r.Counter("qsub_fanout_evictions_total", "subscriptions evicted because their delivery buffer was full at publish time"),
		FanoutEncodes:       r.Counter("qsub_fanout_encodes_total", "wire frames encoded for fan-out (once per message per cycle on the shared-frame path)"),
		FanoutBytes:         r.Counter("qsub_fanout_bytes_total", "frame bytes written to session sockets by the fan-out path"),
		FanoutFramesWritten: r.Counter("qsub_fanout_frames_written_total", "answer frames handed to the kernel by session writers (deliveries lag this only by in-flight queues; in-band control frames are not counted)"),
		FanoutFlushes:       r.Counter("qsub_fanout_flushes_total", "socket flushes by session writers; frames-written over this is the achieved write coalescing factor"),

		SessionsEvicted:      r.Counter("qsub_sessions_evicted_total", "daemon sessions dropped as slow consumers"),
		SessionsMoved:        r.Counter("qsub_sessions_moved_total", "sessions a replan bound to a channel they were not already on"),
		SessionsSuperseded:   r.Counter("qsub_sessions_superseded_total", "daemon sessions replaced by a reconnect with the same client id"),
		SessionsExpiredIdle:  r.Counter("qsub_sessions_expired_idle_total", "daemon sessions dropped because no frame arrived within the read-idle timeout"),
		SessionsExpiredWrite: r.Counter("qsub_sessions_expired_write_total", "daemon sessions dropped because a frame write missed its deadline"),

		CycleStageSeconds:    r.HistogramVec("qsub_cycle_stage_seconds", "wall time of each RunCycle pipeline stage", "stage", CycleStages, LatencyBuckets),
		SessionLagSeconds:    r.Histogram("qsub_session_lag_seconds", "per-cycle watermark: staleness of the laggiest session (time since its last delivered frame)", LatencyBuckets),
		SessionsConnected:    r.Gauge("qsub_sessions_connected", "live daemon sessions"),
		SessionMaxSeqLag:     r.Gauge("qsub_session_max_seq_lag", "per-cycle watermark: largest per-session sequence lag behind the channel head"),
		SessionMaxQueueDepth: r.Gauge("qsub_session_max_queue_depth", "per-cycle watermark: deepest per-session delivery queue"),
		SessionMaxStaleMs:    r.Gauge("qsub_session_max_staleness_ms", "per-cycle watermark: staleness of the laggiest session in milliseconds"),

		RelayFrames:     r.Counter("qsub_relay_frames_total", "answer frames received from the upstream relay feed"),
		RelayBytes:      r.Counter("qsub_relay_bytes_total", "answer frame bytes received from the upstream relay feed"),
		RelayReconnects: r.Counter("qsub_relay_reconnects_total", "upstream feed sessions re-established after a loss"),
		RelayHop:        r.Gauge("qsub_relay_hop", "hops from the root publisher (0 = root daemon)"),
		RelaySessions:   r.Gauge("qsub_relay_sessions", "attached downstream relay feed sessions"),

		ClientKeptTuples:       r.Counter("qsub_client_kept_tuples_total", "tuples kept by the client extractor"),
		ClientFilteredMessages: r.Counter("qsub_client_filtered_messages_total", "messages discarded by clients as unaddressed"),
	}
}

// Snapshot returns a point-in-time copy of the catalog's registry.
// Nil-safe: returns nil for a nil catalog.
func (c *Catalog) Snapshot() *Snapshot {
	if c == nil {
		return nil
	}
	return c.Registry.Snapshot()
}
