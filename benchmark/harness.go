package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"qsub/internal/cost"
	"qsub/internal/metrics"
	"qsub/internal/multicast"
	"qsub/internal/server"
)

// options parameterize one run of one workload.
type options struct {
	seed    int64
	seconds float64 // measured window
	cycles  int     // >0: measure exactly this many cycles instead
	trace   bool
	setups  int  // set-ups per run; setup_s is their median (setupsPerRun outside tests)
	smoke   bool // use the workload's scaled-down sizes
	outDir  string
}

// setupsPerRun is how often a run sets its workload up; setup_s is the
// median, so one slow start (cold caches, a busy host) does not decide it.
const setupsPerRun = 3

// cycleTimeout bounds every wait for frames, assignments or
// subscriptions; running into it is a failed run, not a slow one.
const cycleTimeout = 60 * time.Second

// maxLatencySamples caps each session's preallocated sample buffer.
const maxLatencySamples = 1 << 15

// barrier is the closed loop's completion signal: subscribers count the
// frames they have extracted, the driver waits for the count it expects.
type barrier struct {
	extracted atomic.Uint64
	target    atomic.Uint64
	done      chan struct{}
}

func newBarrier() *barrier {
	b := &barrier{done: make(chan struct{}, 1)}
	b.target.Store(math.MaxUint64)
	return b
}

// arrive counts one extracted frame. Only the arrivals that reach the
// driver's target signal, so the common case is one atomic add.
func (b *barrier) arrive() {
	if b.extracted.Add(1) >= b.target.Load() {
		select {
		case b.done <- struct{}{}:
		default:
		}
	}
}

// await blocks until want frames have been extracted in total.
func (b *barrier) await(want uint64) error {
	b.target.Store(want)
	defer b.target.Store(math.MaxUint64)
	timer := time.NewTimer(cycleTimeout)
	defer timer.Stop()
	for b.extracted.Load() < want {
		select {
		case <-b.done:
		case <-timer.C:
			return fmt.Errorf("timed out with %d of %d frames extracted", b.extracted.Load(), want)
		}
	}
	return nil
}

// tally counts the operations a run attempted and failed: one per
// expected (client, frame) delivery and one per verified (client, query)
// answer.
type tally struct {
	attempted, failed uint64
	reasons           int
}

func (t *tally) fail(n uint64, format string, args ...any) {
	t.failed += n
	if t.reasons < 10 {
		t.reasons++
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// cycleSample is what one measured cycle contributes to the end-to-end
// metrics.
type cycleSample struct {
	wall   time.Duration
	frames uint64
	cost   float64
}

// bench is one workload instance: set up once, cycled in lockstep.
type bench interface {
	// setup builds everything up to and including the warm-up cycles.
	setup() error
	// cycle runs one closed-loop cycle: apply the change, publish, wait
	// until the last subscriber has extracted its last frame.
	cycle(ordinal int, tr *tracer) (cycleSample, error)
	// verify compares extracted answers with direct evaluation; final
	// checks every client, otherwise a rotating tenth.
	verify(ordinal int, final bool, tr *tracer) error
	// pause and resume bracket untimed work inside the measured window,
	// so per-cycle counter averages cover measured cycles only.
	pause()
	resume()
	// capture runs one more untimed cycle whose messages every subscriber
	// copies, as input for the layer replays (traced run only). It runs
	// before the final verification: a full publish feeds the daemon's
	// drift monitor, and a cycle after it could replan.
	capture(ordinal int) error
	// latencies returns the sorted per-frame delivery samples.
	latencies() []uint32
	// layers fills the per-layer metrics (traced run only): counters and
	// ledger stages first, then replays of captured inputs.
	layers(cycles int, tr *tracer, out map[string]float64) error
	counts() *tally
	close()
}

func newBench(spec workloadSpec, opts options) bench {
	if spec.Name == "plan-paper" {
		return newPlanBench(spec, opts)
	}
	return newNetBench(spec, opts)
}

// report is one run's result.
type report struct {
	Workload       string
	Seed           int64
	Cycles         int
	LatencySamples int
	Attempted      uint64
	Failed         uint64
	Metrics        map[string]float64
	Traced         bool // Metrics holds the per-layer set, not the end-to-end one
	TracePath      string
}

// runWorkload sets the workload up (opts.setups times, keeping the
// last), measures it, verifies it, and in a traced run replays the
// layers.
func runWorkload(spec workloadSpec, opts options) (*report, error) {
	runtime.GOMAXPROCS(2)
	var w bench
	var setupTimes []float64
	for i := 0; i < max(opts.setups, 1); i++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		w = newBench(spec, opts)
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: set-up: %w", spec.Name, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer w.close()

	sz := spec.Full
	if opts.smoke {
		sz = spec.Smoke
	}
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	var walls []float64
	var wall time.Duration
	var frames uint64
	var cost float64
	goroutines := 0
	var m meter
	windowStart := time.Now()
	m.resume()
	w.resume()
	for k := 1; ; k++ {
		s, err := w.cycle(k, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: cycle %d: %w", spec.Name, k, err)
		}
		walls = append(walls, ms(s.wall))
		wall += s.wall
		frames += s.frames
		cost += s.cost
		goroutines = max(goroutines, runtime.NumGoroutine())
		done := time.Since(windowStart).Seconds() >= opts.seconds
		if opts.cycles > 0 {
			done = k >= opts.cycles
		}
		if done || k%sz.VerifyEvery == 0 {
			m.pause()
			w.pause()
			if done && tr != nil {
				if err := w.capture(k + 1); err != nil {
					return nil, fmt.Errorf("%s: capture cycle: %w", spec.Name, err)
				}
			}
			if err := w.verify(k, done, tr); err != nil {
				return nil, fmt.Errorf("%s: verification after cycle %d: %w", spec.Name, k, err)
			}
			if done {
				break
			}
			w.resume()
			m.resume()
		}
	}
	cycles := len(walls)
	lat := w.latencies()
	t := w.counts()
	rep := &report{Workload: spec.Name, Seed: opts.seed, Cycles: cycles, LatencySamples: len(lat),
		Traced: opts.trace, Metrics: make(map[string]float64)}
	slices.Sort(walls)
	if !opts.trace {
		rep.Metrics = map[string]float64{
			"setup_s":            median(setupTimes),
			"cycle_ms_p50":       percentile(walls, 0.50),
			"cycle_ms_p90":       percentile(walls, 0.90),
			"deliver_ms_p50":     float64(percentile(lat, 0.50)) / 1e6,
			"frames_per_s":       float64(frames) / wall.Seconds(),
			"cpu_ms_per_cycle":   ms(m.cpu) / float64(cycles),
			"alloc_mb_per_cycle": float64(m.alloc) / float64(cycles) / (1 << 20),
			"cost_per_cycle":     cost / float64(cycles),
		}
	} else {
		out := rep.Metrics
		for _, spec := range perLayer {
			out[spec.Name] = 0
		}
		out["netclient.deliver_ms_p90"] = float64(percentile(lat, 0.90)) / 1e6
		out["netclient.deliver_ms_p99"] = float64(percentile(lat, 0.99)) / 1e6
		if len(lat) > 0 {
			out["netclient.deliver_ms_max"] = float64(lat[len(lat)-1]) / 1e6
		}
		out["proc.gc_pause_ms_total"] = ms(m.gcPause)
		out["proc.gc_cycles"] = float64(m.gcCount)
		out["proc.goroutines_peak"] = float64(goroutines)
		out["trace.cycle_ms_p50"] = percentile(walls, 0.50)
		if err := w.layers(cycles, tr, out); err != nil {
			return nil, fmt.Errorf("%s: layer replay: %w", spec.Name, err)
		}
		out["proc.peak_rss_mb"] = peakRSSMB()
		out["budget.residual_share"] = tr.residualShare()
		path, err := tr.write(opts.outDir, spec.Name, opts.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: writing trace: %w", spec.Name, err)
		}
		rep.TracePath = path
	}
	rep.Attempted, rep.Failed = t.attempted, t.failed
	if rep.Attempted == 0 {
		return nil, errors.New(spec.Name + ": nothing attempted")
	}
	return rep, nil
}

// owedFrames advances the per-channel message watermarks in seen to the
// catalog's current counts and returns what the publish that just
// returned owes: a subscriber on channel ch receives every message
// published on ch, so Σ messages(ch) × perChannel(ch) frames.
func owedFrames(cat *metrics.Catalog, seen, perChannel []uint64) (frames, messages uint64) {
	for ch := range seen {
		now := cat.ChannelMessages.At(ch).Load()
		n := now - seen[ch]
		seen[ch] = now
		messages += n
		frames += n * perChannel[ch]
	}
	return frames, messages
}

// realizedCost is the paper's objective for one publish, in the units of
// Cycle.EstimatedCost: K_M per message plus K6 per message and listener
// of its channel (which sums to the frames owed), K_T per payload byte,
// and K_U per irrelevant byte — the server's realized U(Q,M) counter, in
// tuples, times the tuple size, which is uniform within a workload.
func realizedCost(m cost.Model, rep server.Report, frames, irrelevantTuples uint64, tupleBytes int) float64 {
	return m.KM*float64(rep.Messages) + m.K6*float64(frames) + m.KT*float64(rep.PayloadBytes) +
		m.KU*float64(irrelevantTuples)*float64(tupleBytes)
}

// latencySample is now minus the frame's publish stamp, saturated into
// 32 bits of nanoseconds (4.29 s, far past the cycle timeout's use).
func latencySample(publishedUnixNano int64) uint32 {
	d := time.Now().UnixNano() - publishedUnixNano
	return uint32(min(max(d, 0), math.MaxUint32))
}

// cloneMessage deep-copies a message whose storage the connection reuses.
func cloneMessage(m multicast.Message) multicast.Message {
	out := m
	out.Frame = nil
	out.Tuples = slices.Clone(m.Tuples)
	for i := range out.Tuples {
		out.Tuples[i].Payload = slices.Clone(out.Tuples[i].Payload)
	}
	out.Header = slices.Clone(m.Header)
	for i := range out.Header {
		out.Header[i].QueryIDs = slices.Clone(out.Header[i].QueryIDs)
	}
	out.Removed = slices.Clone(m.Removed)
	return out
}
