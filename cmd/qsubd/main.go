// Command qsubd is the subscription daemon: it loads a battlefield-style
// database, listens for TCP clients speaking the wire protocol, and runs
// periodic merge/allocate/publish cycles.
//
// Usage:
//
//	qsubd -listen :7070 -channels 3 -tuples 20000 -period 2s
//	qsubd -listen :7070 -delta          # ship per-period deltas (§11)
//	qsubd -listen :7070 -admin :7071    # expose /metrics, /statusz, pprof
//
// With -upstream the process runs as a relay tier instead of a root
// daemon: it subscribes to the upstream daemon's answer channels as one
// privileged feed session and re-fans the shared frames out verbatim to
// its own clients — no database, no planning, byte-identical delivery:
//
//	qsubd -upstream root:7070 -listen :7080 -relay-id 1000000
//	qsubd -upstream root:7070 -listen :7080 -relay-channels 0,2,5
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qsub/internal/chanalloc"
	"qsub/internal/cost"
	"qsub/internal/daemon"
	"qsub/internal/multicast"
	"qsub/internal/relation"
	"qsub/internal/server"
	"qsub/internal/shard"
	"qsub/internal/trace"
	"qsub/internal/workload"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:7070", "listen address")
		channels  = flag.Int("channels", 3, "multicast channels")
		tuples    = flag.Int("tuples", 20000, "objects to load")
		period    = flag.Duration("period", 2*time.Second, "cycle period")
		delta     = flag.Bool("delta", false, "ship per-period deltas instead of full answers")
		seed      = flag.Int64("seed", 1, "data seed")
		km        = flag.Float64("km", 64000, "cost model K_M")
		kt        = flag.Float64("kt", 1, "cost model K_T")
		ku        = flag.Float64("ku", 0.5, "cost model K_U")
		k6        = flag.Float64("k6", 24000, "cost model K6 (per-listener filtering)")
		snapshot  = flag.String("snapshot", "", "load the database from this snapshot file if it exists; save to it on SIGINT/SIGTERM")
		traceOut  = flag.String("trace", "", "record control-plane events as JSON lines to this file")
		subsFile  = flag.String("subs", "", "restore subscriptions from this file at start; save to it on SIGINT/SIGTERM")
		feed      = flag.Int("feed", 0, "insert this many new objects per cycle (continuous-feed mode)")
		admin     = flag.String("admin", "", "serve the admin endpoint (/metrics, /healthz, /statusz, /debug/pprof) on this address")
		shardBits = flag.Int("shards", 0, "plan with the sharded pipeline using this many Morton prefix bits (2^bits shards; 0 with -aggregate=false disables sharding)")
		aggregate = flag.Bool("aggregate", false, "collapse covered/near-duplicate subscriptions before solving (sharded pipeline)")
		budget    = flag.Duration("budget", 0, "anytime planning budget per cycle; the solvers return their best-so-far plan at the deadline (0 = unlimited)")
		neighbors = flag.Int("neighbors", 0, "prune merge candidates to each query's k nearest Z-order neighbors (0 = exact full table)")

		upstream      = flag.String("upstream", "", "run as a relay tier feeding from this upstream daemon (or relay) address instead of serving a database")
		relayID       = flag.Int("relay-id", 1<<30, "client id the relay introduces its upstream feed session with (shares the client id space)")
		relayChannels = flag.String("relay-channels", "", "comma-separated channel numbers to subscribe upstream (empty = all channels)")

		readIdle   = flag.Duration("read-idle", 5*time.Minute, "drop a session that sends no frame for this long (0 disables)")
		writeTO    = flag.Duration("write-timeout", daemon.DefaultWriteTimeout, "per-frame write deadline for session connections (0 disables)")
		subBuffer  = flag.Int("sub-buffer", daemon.DefaultSubscriberBuffer, "per-session delivery queue depth")
		slowPolicy = flag.String("slow-policy", "evict", "what a publish does when a session's queue is full: evict, drop or block")
	)
	flag.Parse()

	policy, err := multicast.ParsePolicy(*slowPolicy)
	if err != nil {
		log.Fatalf("qsubd: %v", err)
	}

	if *upstream != "" {
		runRelay(relayArgs{
			upstream:  *upstream,
			relayID:   *relayID,
			channels:  *relayChannels,
			listen:    *listen,
			admin:     *admin,
			writeTO:   *writeTO,
			subBuffer: *subBuffer,
		})
		return
	}

	wl := workload.DefaultConfig()
	wl.Seed = *seed
	gen, err := workload.NewGenerator(wl)
	if err != nil {
		log.Fatal(err)
	}
	var rel *relation.Relation
	if *snapshot != "" {
		if f, err := os.Open(*snapshot); err == nil {
			rel, err = relation.ReadSnapshot(f, 25, 25)
			f.Close()
			if err != nil {
				log.Fatalf("qsubd: loading snapshot: %v", err)
			}
			log.Printf("qsubd: restored %d tuples from %s", rel.Len(), *snapshot)
		}
	}
	if rel == nil {
		rel = relation.MustNew(wl.DB, 25, 25)
		for _, p := range gen.Points(*tuples) {
			rel.Insert(p, []byte("object"))
		}
	}

	d, err := daemon.New(rel, *channels, server.Config{
		Model:      cost.Model{KM: *km, KT: *kt, KU: *ku, K6: *k6},
		Strategy:   chanalloc.BestOfBoth,
		PlanBudget: *budget,
		Neighbors:  *neighbors,
		Sharding: shard.Config{
			Enabled:   *shardBits > 0 || *aggregate,
			ShardBits: *shardBits,
			Aggregate: *aggregate,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	d.Logf = log.Printf
	d.ReadIdleTimeout = *readIdle
	d.WriteTimeout = *writeTO
	d.SubscriberBuffer = *subBuffer
	d.SlowPolicy = policy
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		d.Trace = trace.NewRecorder(f, func() int64 { return time.Now().UnixMilli() })
		log.Printf("qsubd: tracing control-plane events to %s", *traceOut)
	}

	if *admin != "" {
		aln, err := net.Listen("tcp", *admin)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("qsubd: admin endpoint on http://%s (/metrics, /healthz, /statusz, /buildinfo, /debug/pprof)", aln.Addr())
		go func() {
			if err := (&http.Server{Handler: d.AdminMux()}).Serve(aln); err != nil {
				log.Printf("qsubd: admin endpoint: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("qsubd: listening on %s (%d channels, %d tuples, period %s, delta=%t)",
		ln.Addr(), *channels, rel.Len(), *period, *delta)

	if *subsFile != "" {
		if f, err := os.Open(*subsFile); err == nil {
			n, err := d.LoadSubscriptions(f)
			f.Close()
			if err != nil {
				log.Fatalf("qsubd: loading subscriptions: %v", err)
			}
			log.Printf("qsubd: restored %d subscriptions from %s", n, *subsFile)
		}
	}

	// SIGINT/SIGTERM cancel the context; Serve then drains sessions,
	// sends each a Bye and returns, after which state is persisted.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	go func() {
		ticker := time.NewTicker(*period)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			for i := 0; i < *feed; i++ {
				rel.Insert(gen.Points(1)[0], []byte("feed-object"))
			}
			rep, err := d.RunCycle(*delta)
			if err != nil {
				log.Printf("qsubd: cycle skipped: %v", err)
				continue
			}
			log.Printf("qsubd: published %d messages, %d tuples, %s",
				rep.Messages, rep.Tuples, byteCount(rep.PayloadBytes))
		}
	}()

	if err := d.Serve(ctx, ln); err != nil {
		log.Fatal(err)
	}
	log.Printf("qsubd: shut down gracefully")

	if *snapshot != "" {
		f, err := os.Create(*snapshot)
		if err == nil {
			err = rel.WriteSnapshot(f)
			f.Close()
		}
		if err != nil {
			log.Printf("qsubd: saving snapshot: %v", err)
		} else {
			log.Printf("qsubd: snapshot of %d tuples saved to %s", rel.Len(), *snapshot)
		}
	}
	if *subsFile != "" {
		f, err := os.Create(*subsFile)
		if err == nil {
			err = d.SaveSubscriptions(f)
			f.Close()
		}
		if err != nil {
			log.Printf("qsubd: saving subscriptions: %v", err)
		} else {
			log.Printf("qsubd: subscriptions saved to %s", *subsFile)
		}
	}
}

func byteCount(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
