package loadtest

import (
	"io"
	"testing"
	"time"
)

// shortConfig is the `make loadtest` short-mode shape: 500 sessions
// against one in-process daemon (scaled down under -race, which slows
// the per-frame path by an order of magnitude).
func shortConfig() Config {
	cfg := Config{Sessions: 500, Channels: 8, Cycles: 3, Timeout: 2 * time.Minute}
	if raceEnabled {
		cfg.Sessions = 120
	}
	if testing.Short() {
		cfg.Sessions = 120
		cfg.Cycles = 2
	}
	return cfg
}

// TestLoadHarnessShort drives the short-mode harness end to end on the
// shared-frame path and pins the tentpole's accounting: every expected
// frame arrives, and the daemon encoded exactly one frame per published
// message — not one per delivery.
func TestLoadHarnessShort(t *testing.T) {
	cfg := shortConfig()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := Run(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", res.BenchLine())

	if res.Frames != res.FramesPerCycle*uint64(cfg.Cycles) {
		t.Fatalf("delivered %d frames, want %d", res.Frames, res.FramesPerCycle*uint64(cfg.Cycles))
	}
	// Encode-once: exactly one encode per published message, however the
	// planner grouped the queries into messages.
	if res.Messages == 0 || res.Encodes != res.Messages {
		t.Fatalf("measured window encoded %d frames for %d messages, want one encode per message", res.Encodes, res.Messages)
	}
	if res.Encodes >= res.Frames {
		t.Fatalf("encodes %d should be far below delivered frames %d", res.Encodes, res.Frames)
	}
	if res.FramesShared != res.Deliveries || res.Deliveries != res.Frames {
		t.Fatalf("shared-frame accounting: shared %d, deliveries %d, frames %d — all should match",
			res.FramesShared, res.Deliveries, res.Frames)
	}
	if res.FanoutBytes == 0 || res.FramesPerSec <= 0 {
		t.Fatalf("degenerate measurements: %+v", res)
	}
	if res.P99 < res.P50 {
		t.Fatalf("p99 %s < p50 %s", res.P99, res.P50)
	}
}

// TestLoadHarnessRelayTier runs the two-tier topology — one root, two
// relays, sessions round-robined across them — and pins the
// hierarchical fan-out accounting: the root encoded once per message
// and wrote once per message per relay, while every session still
// received exactly its channel's frames through the tier.
func TestLoadHarnessRelayTier(t *testing.T) {
	cfg := shortConfig()
	cfg.Relays = 2
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := Run(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", res.BenchLine())

	if res.Relays != cfg.Relays {
		t.Fatalf("result carries %d relays, want %d", res.Relays, cfg.Relays)
	}
	if res.Frames != res.FramesPerCycle*uint64(cfg.Cycles) {
		t.Fatalf("delivered %d frames, want %d", res.Frames, res.FramesPerCycle*uint64(cfg.Cycles))
	}
	// Encode-once survives the tier: the root still encodes exactly one
	// frame per message, and its delivery count collapses from one per
	// session to one per relay.
	if res.Messages == 0 || res.Encodes != res.Messages {
		t.Fatalf("measured window encoded %d frames for %d messages, want one encode per message", res.Encodes, res.Messages)
	}
	if res.Deliveries != res.Messages*uint64(cfg.Relays) {
		t.Fatalf("root delivered %d frames for %d messages × %d relays", res.Deliveries, res.Messages, cfg.Relays)
	}
	if res.Deliveries >= res.Frames {
		t.Fatalf("root deliveries %d should be far below session frames %d", res.Deliveries, res.Frames)
	}
}

// TestSplitProcessProtocol exercises the split-process plumbing without
// spawning a process: ServeProtocol runs on in-memory pipes and the
// driver talks to it through ProcControl, exactly as qsubload's parent
// and child do over stdin/stdout.
func TestSplitProcessProtocol(t *testing.T) {
	cfg := Config{Sessions: 48, Channels: 4, Cycles: 2, Timeout: time.Minute}
	toChild, childIn := io.Pipe()
	fromChild, childOut := io.Pipe()
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- ServeProtocol(cfg, toChild, childOut)
	}()
	ctl, err := NewProcControl(childIn, fromChild)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ctl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("ServeProtocol: %v", err)
	}
	if res.Frames != res.FramesPerCycle*uint64(cfg.Cycles) || res.Encodes != res.Messages || res.Messages == 0 {
		t.Fatalf("split-process run: %+v", res)
	}
}

// TestLatHist pins the histogram's resolution contract: ≤6.25% error
// above 16µs, exact below.
func TestLatHist(t *testing.T) {
	var h latHist
	for _, d := range []time.Duration{
		3 * time.Microsecond,
		250 * time.Microsecond,
		3 * time.Millisecond,
		800 * time.Millisecond,
		12 * time.Second,
	} {
		b := latBucket(d)
		lo := latValue(b)
		if lo > d {
			t.Fatalf("bucket lower bound %s exceeds recorded value %s", lo, d)
		}
		if d >= 16*time.Microsecond && float64(d-lo) > 0.0626*float64(d) {
			t.Fatalf("bucket error for %s is %s (>6.25%%)", d, d-lo)
		}
		if d < 16*time.Microsecond && lo != d {
			t.Fatalf("sub-16µs values must be exact: %s -> %s", d, lo)
		}
		h.Record(d)
	}
	if h.Percentile(0.5) == 0 || h.Percentile(0.99) < h.Percentile(0.5) {
		t.Fatalf("percentiles inconsistent: p50 %s p99 %s", h.Percentile(0.5), h.Percentile(0.99))
	}
}
