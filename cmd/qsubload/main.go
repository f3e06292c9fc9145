// Command qsubload is the real-socket fan-out load harness: it drives
// thousands of concurrent netclient sessions over loopback TCP against
// one daemon and reports delivery throughput, per-frame latency
// percentiles, encodes per cycle and bytes per cycle as `go test
// -bench` style lines.
//
// By default the daemon runs in a child process (re-exec with -serve)
// so each half stays under RLIMIT_NOFILE at 10k+ sessions; -split=false
// keeps everything in one process for small runs and debugging.
//
// Usage:
//
//	qsubload -sessions 10000 -channels 64            # root → sessions
//	qsubload -sessions 500 -split=false              # everything in one process
//	qsubload -sessions 2000 -relays 2                # two-tier: root → 2 relays → sessions
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"time"

	"qsub/internal/loadtest"
)

func main() {
	var (
		sessions  = flag.Int("sessions", 10000, "concurrent netclient sessions (one subscription each)")
		channels  = flag.Int("channels", 64, "multicast channels")
		cycles    = flag.Int("cycles", 3, "measured delta cycles after the bootstrap cycle")
		relays    = flag.Int("relays", 0, "insert a relay tier of this many relays between the daemon and the sessions (0 = sessions dial the daemon directly)")
		split     = flag.Bool("split", true, "run the daemon in a child process (halves the per-process fd load)")
		timeout   = flag.Duration("timeout", 5*time.Minute, "per-phase timeout")
		verbose   = flag.Bool("v", false, "log harness progress to stderr")
		serve     = flag.Bool("serve", false, "internal: run the daemon half on stdin/stdout (split-process child)")
		profile   = flag.String("cpuprofile", "", "write a CPU profile of the daemon half to this file")
		latency   = flag.Bool("latency", false, "emit publish→receive latency rows (BenchmarkLatency/...) alongside the fan-out lines")
		assertP99 = flag.Duration("assert-p99", 0, "exit nonzero unless the publish→receive p99 is nonzero and below this ceiling (smoke-test gate)")
	)
	flag.Parse()

	// The relay tier always runs in the driver half: relays are pure
	// fan-out, so they live with the sessions they feed and the -serve
	// child stays a plain root daemon.
	cfg := loadtest.Config{
		Sessions: *sessions,
		Channels: *channels,
		Cycles:   *cycles,
		Relays:   *relays,
		Timeout:  *timeout,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}

	if *serve {
		if *profile != "" {
			f, err := os.Create(*profile)
			if err != nil {
				log.Fatalf("qsubload: %v", err)
			}
			pprof.StartCPUProfile(f)
			defer pprof.StopCPUProfile()
		}
		// Best effort: raise the daemon child's scheduling priority so
		// the measured fan-out wall time reflects the delivery engine's
		// own work rather than CPU contention with the client half on
		// small hosts. Failure (no privilege) is ignored.
		elevate()
		if err := loadtest.ServeProtocol(cfg, os.Stdin, os.Stdout); err != nil {
			log.Fatalf("qsubload: serve: %v", err)
		}
		return
	}

	res, err := run(cfg, *split, *profile)
	if err != nil {
		log.Fatalf("qsubload: %v", err)
	}
	fmt.Println(res.BenchLine())
	if *latency || *assertP99 > 0 {
		fmt.Println(res.LatencyBenchLine())
	}
	if res.Flushes > 0 {
		fmt.Printf("# %.1f frames per socket flush\n", float64(res.Frames)/float64(res.Flushes))
	}
	if *assertP99 > 0 {
		if res.LatencyP99 <= 0 {
			log.Fatalf("qsubload: publish→receive p99 is zero — frames arrived unstamped (%d samples)", res.LatencySamples)
		}
		if res.LatencyP99 >= *assertP99 {
			log.Fatalf("qsubload: publish→receive p99 %s breaches the %s ceiling", res.LatencyP99, *assertP99)
		}
	}
}

// run executes one harness measurement, either fully in-process or with
// the daemon in a re-exec'd child speaking the line protocol. profile,
// when set, is passed down so the daemon half writes a CPU profile.
func run(cfg loadtest.Config, split bool, profile string) (loadtest.Result, error) {
	if !split {
		srv, err := loadtest.NewServer(cfg)
		if err != nil {
			return loadtest.Result{}, err
		}
		defer srv.Close()
		return loadtest.Run(srv, cfg)
	}

	self, err := os.Executable()
	if err != nil {
		return loadtest.Result{}, err
	}
	args := []string{"-serve",
		"-sessions", strconv.Itoa(cfg.Sessions),
		"-channels", strconv.Itoa(cfg.Channels),
		"-cycles", strconv.Itoa(cfg.Cycles),
		"-timeout", cfg.Timeout.String()}
	if profile != "" {
		args = append(args, "-cpuprofile", profile)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return loadtest.Result{}, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return loadtest.Result{}, err
	}
	if err := cmd.Start(); err != nil {
		return loadtest.Result{}, err
	}
	defer cmd.Process.Kill() // no-op after a clean Close/Wait

	ctl, err := loadtest.NewProcControl(stdin, stdout)
	if err != nil {
		cmd.Wait()
		return loadtest.Result{}, err
	}
	ctl.Stop = cmd.Wait
	res, err := loadtest.Run(ctl, cfg)
	if cerr := ctl.Close(); err == nil {
		err = cerr
	}
	return res, err
}
