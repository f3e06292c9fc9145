// Command qsubtop is a live terminal dashboard for a running qsubd: it
// polls the daemon's admin endpoint (/statusz) and renders cycle rate,
// pipeline stage breakdown, fan-out throughput, delivery-lag quantiles
// and the top-N laggiest sessions, refreshing in place like top(1).
//
// Usage:
//
//	qsubtop -addr 127.0.0.1:7071               # refresh every 2s
//	qsubtop -addr 127.0.0.1:7071 -interval 1s -n 20
//	qsubtop -addr 127.0.0.1:7071 -once         # one snapshot, no screen clear
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"qsub/internal/admin"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7071", "qsubd admin endpoint address (the -admin flag of qsubd)")
		interval = flag.Duration("interval", 2*time.Second, "poll/refresh interval")
		topN     = flag.Int("n", 10, "laggiest sessions to show")
		once     = flag.Bool("once", false, "render one snapshot and exit (no screen clearing)")
	)
	flag.Parse()

	client := &http.Client{Timeout: 5 * time.Second}
	fetch := func() (*admin.Status, error) {
		resp, err := client.Get("http://" + *addr + "/statusz")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("statusz: %s", resp.Status)
		}
		var st admin.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return nil, err
		}
		return &st, nil
	}

	var prev *admin.Status
	var prevAt time.Time
	for {
		st, err := fetch()
		now := time.Now()
		if err != nil {
			if *once {
				log.Fatalf("qsubtop: %v", err)
			}
			fmt.Fprintf(os.Stderr, "qsubtop: %v (retrying in %s)\n", err, *interval)
		} else {
			out := render(prev, st, now.Sub(prevAt), *topN)
			if !*once {
				fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
			}
			fmt.Print(out)
			prev, prevAt = st, now
		}
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}
