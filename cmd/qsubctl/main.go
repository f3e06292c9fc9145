// Command qsubctl is an interactive subscription client for qsubd: it
// subscribes one or more rectangle queries, waits for channel assignment
// and merged answers, extracts its answers client-side, and prints the
// accounting. Every run goes through the netclient runtime: the session
// is resubscribed after a reconnect, and a sequence gap requests a full
// refresh.
//
// Usage:
//
//	qsubctl -addr 127.0.0.1:7070 -id 1 -q "100,100,300,300" -q "250,250,400,400" -cycles 3
//	qsubctl -addr 127.0.0.1:7070 -id 1 -q "100,100,300,300" -max-attempts 0   # survive daemon restarts
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"qsub/internal/client"
	"qsub/internal/geom"
	"qsub/internal/netclient"
	"qsub/internal/query"
)

// rectList collects repeated -q flags.
type rectList []geom.Rect

func (r *rectList) String() string { return fmt.Sprint(*r) }

func (r *rectList) Set(v string) error {
	parts := strings.Split(v, ",")
	if len(parts) != 4 {
		return fmt.Errorf("want minX,minY,maxX,maxY, got %q", v)
	}
	var c [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return err
		}
		c[i] = f
	}
	*r = append(*r, geom.R(c[0], c[1], c[2], c[3]))
	return nil
}

func main() {
	var rects rectList
	var (
		addr   = flag.String("addr", "127.0.0.1:7070", "daemon address")
		id     = flag.Int("id", 1, "client id")
		cycles = flag.Int("cycles", 1, "number of answer messages to wait for before exiting")

		minBackoff = flag.Duration("min-backoff", 100*time.Millisecond, "base reconnect delay")
		maxBackoff = flag.Duration("max-backoff", 30*time.Second, "reconnect delay cap")
		maxTries   = flag.Int("max-attempts", 1, "give up after this many consecutive failed dials, 0 = retry forever")
	)
	workloadFile := flag.String("workload", "", "load query rectangles from a qsubgen JSON file instead of -q flags")
	flag.Var(&rects, "q", "query rectangle minX,minY,maxX,maxY (repeatable)")
	flag.Parse()
	if *workloadFile != "" {
		loaded, err := loadWorkload(*workloadFile)
		if err != nil {
			log.Fatal(err)
		}
		rects = append(rects, loaded...)
	}
	if len(rects) == 0 {
		fmt.Fprintln(os.Stderr, "qsubctl: at least one -q query (or -workload) is required")
		os.Exit(2)
	}

	queries := make([]query.Query, len(rects))
	for i, r := range rects {
		queries[i] = query.Range(query.ID(i+1), r)
	}

	c := run(queries, *addr, *id, *cycles, *minBackoff, *maxBackoff, *maxTries)
	st := c.Stats()
	fmt.Printf("messages seen %d, addressed %d; bytes relevant %d, irrelevant %d, filtered %d; gaps %d\n",
		st.MessagesSeen, st.MessagesAddressed, st.RelevantBytes, st.IrrelevantBytes,
		st.FilteredBytes, st.GapsDetected)
	for _, q := range c.Queries() {
		fmt.Printf("query %d: %d tuples\n", q.ID, len(c.Answer(q.ID)))
	}
}

// run drives the session through the netclient runtime until cycles
// answers addressed to the client have arrived.
func run(queries []query.Query, addr string, id, cycles int,
	minBackoff, maxBackoff time.Duration, maxAttempts int) *client.Client {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	answers := make(chan struct{}, 64)
	nc, err := netclient.New(netclient.Config{
		Addr:        addr,
		ClientID:    id,
		Queries:     queries,
		MinBackoff:  minBackoff,
		MaxBackoff:  maxBackoff,
		MaxAttempts: maxAttempts,
		Logf:        log.Printf,
		OnEvent: func(ev netclient.Event) {
			switch {
			case ev.Assigned != nil:
				log.Printf("qsubctl: assigned to channel %d (cycle cost %.0f, unmerged %.0f)",
					ev.Assigned.Channel, ev.Assigned.EstimatedCost, ev.Assigned.InitialCost)
			case ev.Err != nil:
				log.Printf("qsubctl: server error: %s", ev.Err.Msg)
			case ev.Answer != nil:
				if _, addressed := ev.Answer.EntryFor(id); addressed {
					select {
					case answers <- struct{}{}:
					default:
					}
				}
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- nc.Run(ctx) }()
	log.Printf("qsubctl: session for %d queries as client %d, waiting for cycles...", len(queries), id)

	for seen := 0; seen < cycles; {
		select {
		case <-answers:
			seen++
		case err := <-runDone:
			log.Fatalf("qsubctl: session ended: %v", err)
		}
	}
	cancel()
	<-runDone
	st := nc.Stats()
	if st.Connects > 1 || st.GapRefreshes > 0 {
		log.Printf("qsubctl: resilience: %d connects, %d dial failures, %d gap refreshes, %d resume refreshes",
			st.Connects, st.DialFailures, st.GapRefreshes, st.ResumeRefreshes)
	}
	return nc.Extractor()
}

// loadWorkload reads the queries of a qsubgen JSON document.
func loadWorkload(path string) (rectList, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Queries []struct {
			MinX float64 `json:"minX"`
			MinY float64 `json:"minY"`
			MaxX float64 `json:"maxX"`
			MaxY float64 `json:"maxY"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("qsubctl: parsing %s: %w", path, err)
	}
	out := make(rectList, len(doc.Queries))
	for i, q := range doc.Queries {
		out[i] = geom.R(q.MinX, q.MinY, q.MaxX, q.MaxY)
	}
	return out, nil
}
