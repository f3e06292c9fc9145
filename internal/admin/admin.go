// Package admin is the admin endpoint of every node, root or relay, and
// the document qsubtop decodes. Four read-only views — /metrics
// (Prometheus text), /healthz, /statusz (one JSON document: plan summary
// or relay stanza, cycle ledger, laggiest sessions, build info, metrics
// snapshot), /buildinfo — plus net/http/pprof under /debug/pprof/.
package admin

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"

	"qsub/internal/fanout"
	"qsub/internal/metrics"
)

// PlanSummary describes a root daemon's cached plan for /statusz.
type PlanSummary struct {
	// Queries is the number of subscribed queries in the plan.
	Queries int `json:"queries"`
	// MergedSets is the number of merged query sets across channels.
	MergedSets int `json:"mergedSets"`
	// EstimatedCost is Cost(M) of the chosen merging (§4).
	EstimatedCost float64 `json:"estimatedCost"`
	// InitialCost is Cost(M) with every query in its own set, the
	// no-merging baseline the optimizer improved on.
	InitialCost float64 `json:"initialCost"`
}

// Status is the /statusz document: control-plane state plus a
// point-in-time counter snapshot, sharing the snapshot types that
// qsubtrace's summary and trace events embed.
type Status struct {
	// Channels is the multicast channel count.
	Channels int `json:"channels"`
	// Sessions is the number of connected TCP clients.
	Sessions int `json:"sessions"`
	// Replans counts planning passes since startup.
	Replans int `json:"replans"`
	// Plan summarizes the cached cycle; nil before the first plan.
	Plan *PlanSummary `json:"plan,omitempty"`
	// RecentCycles is the pipeline ledger: per-cycle stage timings for
	// the most recent cycles, oldest first.
	RecentCycles []CycleRecord `json:"recentCycles,omitempty"`
	// Laggards are the laggiest sessions, worst first (at most
	// StatusLaggards entries).
	Laggards []fanout.SessionLag `json:"laggards,omitempty"`
	// Build identifies the running binary.
	Build *BuildInfo `json:"build,omitempty"`
	// Relay describes this process's upstream link when it runs as a
	// relay tier (see internal/relay); nil on a root daemon.
	Relay *RelayInfo `json:"relay,omitempty"`
	// Metrics is the full registry snapshot.
	Metrics *metrics.Snapshot `json:"metrics"`
}

// RelayInfo is the relay stanza of /statusz: the upstream link a relay
// process re-fans frames from.
type RelayInfo struct {
	// Upstream is the upstream daemon (or relay) address.
	Upstream string `json:"upstream"`
	// Hop is this process's depth below the root (root = 0, first relay
	// tier = 1, ...); 0 until the first RelayAck.
	Hop int `json:"hop"`
	// Connected reports whether the upstream session is currently up.
	Connected bool `json:"connected"`
	// Reconnects counts upstream sessions re-established after the
	// first.
	Reconnects uint64 `json:"reconnects"`
	// Channels is the number of upstream channels the relay's list
	// selects of those the upstream acknowledged (0 before that).
	Channels int `json:"channels"`
	// Clients is the number of downstream client routes registered.
	Clients int `json:"clients"`
}

// StatusLaggards bounds the laggard list embedded in /statusz.
const StatusLaggards = 10

// BuildInfo identifies the running binary for /buildinfo and /statusz.
type BuildInfo struct {
	GoVersion string `json:"goVersion"`
	// Path is the main module path.
	Path string `json:"path,omitempty"`
	// Revision and Modified come from the VCS stamp, when the binary
	// was built from a checkout ("" / false otherwise).
	Revision string `json:"revision,omitempty"`
	Modified bool   `json:"modified,omitempty"`
	// GOMAXPROCS and NumCPU describe the host the binary runs on.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"numCpu"`
}

// ReadBuild collects the build stanza from the binary's embedded build
// information.
func ReadBuild() *BuildInfo {
	bi := &BuildInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		bi.Path = info.Main.Path
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				bi.Revision = s.Value
			case "vcs.modified":
				bi.Modified = s.Value == "true"
			}
		}
	}
	return bi
}

// CycleRecord is one entry of a root daemon's cycle pipeline ledger.
type CycleRecord struct {
	// Cycle is the 1-based RunCycle ordinal.
	Cycle uint64 `json:"cycle"`
	// StartUnixNano is when the cycle began.
	StartUnixNano int64 `json:"startUnixNano"`
	// Mode says how the plan was obtained: "cached" (no replan),
	// "unchanged" (a replan found the subscriptions as they were),
	// "incremental" (allocation inherited, solved only around the churn)
	// or "full" (complete re-solve). The planner reports it on the cycle
	// it returns (server.PlanInfo), as it does ShardsSolved and
	// ShardsReused.
	Mode string `json:"mode"`
	// Sharded marks cycles whose plan split some channel's queries into
	// more than one shard (server.PlanInfo.Sharded).
	Sharded bool `json:"sharded,omitempty"`
	// Delta marks delta-publish cycles.
	Delta bool `json:"delta,omitempty"`
	// ShardsSolved and ShardsReused count the planner's
	// (channel, shard) tasks solved by this cycle's plan and taken over
	// from the previous one.
	ShardsSolved int `json:"shardsSolved,omitempty"`
	ShardsReused int `json:"shardsReused,omitempty"`
	// SessionsMoved counts the sessions this cycle's plan bound to a
	// channel they were not already attached to.
	SessionsMoved int `json:"sessionsMoved,omitempty"`

	// Publish volume, as in server.Report.
	Messages     int `json:"messages"`
	Tuples       int `json:"tuples"`
	PayloadBytes int `json:"payloadBytes"`

	// Stage wall times, in seconds. WriteSeconds measures publish
	// return → last frame of the cycle handed to the kernel; it is
	// zero while WritePending is true.
	PlanSeconds   float64 `json:"planSeconds"`
	EncodeSeconds float64 `json:"encodeSeconds"`
	FanoutSeconds float64 `json:"fanoutSeconds"`
	WriteSeconds  float64 `json:"writeSeconds"`
	// WritePending is true until the session writers have drained the
	// cycle's frames (or the finalizer gave up at its deadline).
	WritePending bool `json:"writePending,omitempty"`
}

// NewMux builds the admin handler of a process — root daemon or relay —
// from the function that collects its /statusz document and the registry
// behind /metrics. The caller owns the listener and server lifecycle
// (see cmd/qsubd's -admin flag).
func NewMux(status func() Status, reg *metrics.Registry, logf func(format string, args ...any)) *http.ServeMux {
	writeJSON := func(w http.ResponseWriter, path string, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			logf("admin: %s write: %v", path, err)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			logf("admin: /metrics write: %v", err)
		}
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, "/statusz", status()) })
	mux.HandleFunc("/buildinfo", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, "/buildinfo", ReadBuild()) })
	// net/http/pprof only self-registers on http.DefaultServeMux; the
	// admin mux is private, so the routes are installed explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
