// Relay mode: with -upstream, qsubd runs internal/relay instead of a
// root daemon — same listen/admin plumbing, no database, no planner.
package main

import (
	"context"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qsub/internal/relay"
)

type relayArgs struct {
	upstream  string
	relayID   int
	channels  string // comma-separated, "" = all
	listen    string
	admin     string
	writeTO   time.Duration
	subBuffer int
}

// parseChannelList parses "0,2,5" into []int; "" means all channels.
func parseChannelList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func runRelay(args relayArgs) {
	channels, err := parseChannelList(args.channels)
	if err != nil {
		log.Fatalf("qsubd: -relay-channels: %v", err)
	}
	r, err := relay.New(relay.Config{
		Upstream:         args.upstream,
		RelayID:          args.relayID,
		Channels:         channels,
		SubscriberBuffer: args.subBuffer,
		WriteTimeout:     args.writeTO,
		Logf:             log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	if args.admin != "" {
		aln, err := net.Listen("tcp", args.admin)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("qsubd: relay admin endpoint on http://%s (/metrics, /healthz, /statusz, /buildinfo, /debug/pprof)", aln.Addr())
		go func() {
			if err := (&http.Server{Handler: r.AdminMux()}).Serve(aln); err != nil {
				log.Printf("qsubd: admin endpoint: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", args.listen)
	if err != nil {
		log.Fatal(err)
	}
	which := args.channels
	if which == "" {
		which = "all channels"
	}
	log.Printf("qsubd: relaying %s from %s, listening on %s (relay id %d)",
		which, args.upstream, ln.Addr(), args.relayID)

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if err := r.Run(ctx, ln); err != nil {
		log.Fatal(err)
	}
	log.Printf("qsubd: relay shut down gracefully")
}
