// Package netclient is the resilient client runtime for daemon sessions:
// the reconnect loop (Loop, exponential backoff with jitter — the one a
// relay's upstream link runs too), automatic re-registration of
// subscriptions after every reconnect, and
// gap recovery — when sequence numbers show a missed message (or a whole
// session was missed), the client asks the daemon for full answers on
// the next cycle instead of silently extracting from an incomplete
// stream.
package netclient

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"qsub/internal/client"
	"qsub/internal/daemon"
	"qsub/internal/metrics"
	"qsub/internal/query"
)

// Session is the slice of a daemon connection the runtime drives. It is
// satisfied by *daemon.Conn and small enough to fake in tests.
type Session interface {
	Subscribe(q query.Query) error
	Ready() error
	Refresh() error
	Next() (daemon.Event, error)
	Close() error
}

// Config parameterizes a resilient client.
type Config struct {
	// Addr is the daemon's address, passed to Dial.
	Addr string
	// ClientID identifies this client to the daemon.
	ClientID int
	// Queries are the subscriptions to register (and re-register after
	// every reconnect).
	Queries []query.Query

	// MinBackoff is the base reconnect delay (default 100ms); the delay
	// doubles per consecutive failure up to MaxBackoff (default 30s),
	// with equal jitter so reconnect herds spread out.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// MaxAttempts caps consecutive failed dials before Run gives up;
	// 0 retries forever (until the context ends).
	MaxAttempts int
	// JitterSeed seeds the backoff jitter; 0 derives one from the clock.
	JitterSeed int64

	// Dial opens a session. Nil uses daemon.Dial over TCP; tests inject
	// fakes or fault-wrapped connections here.
	Dial func(addr string, clientID int) (Session, error)
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
	// OnEvent, when set, observes every server-pushed event after the
	// runtime has processed it.
	OnEvent func(daemon.Event)
	// LatencyHist, when set, receives the publish→receive delta of
	// every timestamped answer frame, in seconds (see
	// client.SetLatencyHistogram). Sharing one histogram across many
	// clients is safe — Observe is atomic — and is how the load harness
	// aggregates fleet-wide quantiles.
	LatencyHist *metrics.Histogram
	// ClockSkew, when set, counts timestamped frames whose
	// publish→receive delta was negative and clamped (see
	// client.SetClockSkewCounter) — expected once frames arrive through
	// a relay in another clock domain.
	ClockSkew *metrics.Counter
}

// Stats counts the resilience machinery's activity.
type Stats struct {
	// Connects is the number of sessions successfully established.
	Connects int
	// DialFailures counts failed connection attempts.
	DialFailures int
	// GapRefreshes counts full-refresh requests sent because sequence
	// numbers showed a missed message.
	GapRefreshes int
	// ResumeRefreshes counts full-refresh requests sent after a
	// reconnect to rebuild state missed while disconnected.
	ResumeRefreshes int
	// Channel is the most recent channel assignment (-1 before any).
	Channel int
	// Frames counts answer frames received across all sessions.
	Frames int
	// LastSeq is the highest sequence number seen on the current
	// channel, zero before any answer.
	LastSeq uint64
	// LastFrameUnixNano is the local receive time of the newest answer
	// frame; now minus this is the session's staleness.
	LastFrameUnixNano int64
}

// Client runs daemon sessions until its context ends, extracting answers
// through an embedded client.Client.
type Client struct {
	cfg Config
	ext *client.Client

	mu    sync.Mutex
	stats Stats
	// Sequence high-water mark (stats.LastSeq) belongs to seqChannel: a
	// session listens on one channel at a time.
	seqChannel int
}

// New builds a resilient client. The extractor is created over
// cfg.Queries; answers accumulate across reconnects.
func New(cfg Config) (*Client, error) {
	if len(cfg.Queries) == 0 {
		return nil, errors.New("netclient: no queries configured")
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, clientID int) (Session, error) {
			return daemon.Dial(addr, clientID)
		}
	}
	c := &Client{
		cfg:   cfg,
		ext:   client.New(cfg.ClientID, cfg.Queries...),
		stats: Stats{Channel: -1},
	}
	c.ext.SetLatencyHistogram(cfg.LatencyHist)
	c.ext.SetClockSkewCounter(cfg.ClockSkew)
	return c, nil
}

// Extractor exposes the underlying answer extractor.
func (c *Client) Extractor() *client.Client { return c.ext }

// Stats returns a copy of the resilience counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Run drives the client's sessions through Loop until ctx ends
// (returning ctx.Err()) or MaxAttempts consecutive dials fail (returning
// an error wrapping the last dial error).
func (c *Client) Run(ctx context.Context) error {
	return Loop(ctx, c.cfg, c.dial, c.runSession)
}

func (c *Client) dial() (Session, error) {
	sess, err := c.cfg.Dial(c.cfg.Addr, c.cfg.ClientID)
	if err != nil {
		c.mu.Lock()
		c.stats.DialFailures++
		c.mu.Unlock()
	}
	return sess, err
}

// Loop is the one reconnect loop of every resilient link — a client's
// daemon session and a relay's upstream feed. It connects, serves the
// connection until it ends, and connects again. Each consecutive failed
// connect backs off one step further (Backoff); a session that ended
// backs off one step and starts the count again. When ctx ends, a live
// connection is closed, which ends serve, and Loop returns ctx.Err();
// after MaxAttempts consecutive failed connects (0: never) it returns an
// error wrapping the last one. Of cfg it reads Addr (for diagnostics),
// MinBackoff (default 100ms), MaxBackoff (default 30s), MaxAttempts,
// JitterSeed and Logf.
func Loop[C io.Closer](ctx context.Context, cfg Config, connect func() (C, error), serve func(C) error) error {
	minDelay, maxDelay := cfg.MinBackoff, cfg.MaxBackoff
	if minDelay <= 0 {
		minDelay = 100 * time.Millisecond
	}
	if maxDelay <= 0 {
		maxDelay = 30 * time.Second
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		conn, err := connect()
		if err != nil {
			failures++
			if cfg.MaxAttempts > 0 && failures >= cfg.MaxAttempts {
				return fmt.Errorf("netclient: giving up on %s after %d failed connects: %w", cfg.Addr, failures, err)
			}
		} else {
			stop := context.AfterFunc(ctx, func() { conn.Close() })
			err = serve(conn)
			stop()
			conn.Close()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			failures = 1
		}
		delay := Backoff(minDelay, maxDelay, failures, rng)
		if cfg.Logf != nil {
			cfg.Logf("netclient: %s: %v (reconnecting in %s)", cfg.Addr, err, delay)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
}

// Backoff returns the delay before reconnect attempt n (1-based):
// exponential from min, capped at max, with equal jitter (half fixed,
// half random) so synchronized peers fan out. Loop is its one caller.
func Backoff(min, max time.Duration, n int, rng *rand.Rand) time.Duration {
	d := min
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// runSession registers the subscriptions and consumes events until the
// session fails.
func (c *Client) runSession(sess Session) error {
	for _, q := range c.cfg.Queries {
		if err := sess.Subscribe(q); err != nil {
			return err
		}
	}
	if err := sess.Ready(); err != nil {
		return err
	}
	c.mu.Lock()
	c.stats.Connects++
	resumed := c.stats.Connects > 1
	if resumed {
		c.stats.ResumeRefreshes++
	}
	c.mu.Unlock()
	if resumed {
		// Anything published while we were gone is lost; ask for full
		// answers on the next cycle rather than resuming mid-delta.
		if err := sess.Refresh(); err != nil {
			return err
		}
		c.logf("netclient: reconnected (session %d), requested full refresh", c.cfg.ClientID)
	}

	for {
		ev, err := sess.Next()
		if err != nil {
			return err
		}
		if err := c.handle(sess, ev); err != nil {
			return err
		}
	}
}

// handle processes one server-pushed event. An Answer is borrowed from
// the session (see daemon.Conn.Next) and is done with when handle returns.
func (c *Client) handle(sess Session, ev daemon.Event) error {
	switch {
	case ev.Assigned != nil:
		c.mu.Lock()
		if prev := c.stats.Channel; prev != ev.Assigned.Channel {
			// The channel being left keeps publishing without us: its
			// mark would make a later return to it look like a gap.
			c.stats.LastSeq = 0
		}
		c.stats.Channel = ev.Assigned.Channel
		c.mu.Unlock()
	case ev.Answer != nil:
		// One clock read per frame serves the session's staleness and
		// the extractor's latency accounting.
		now := time.Now().UnixNano()
		if c.noteSeq(ev.Answer.Channel, ev.Answer.Seq, now) {
			c.logf("netclient: sequence gap on channel %d, requesting full refresh", ev.Answer.Channel)
			if err := sess.Refresh(); err != nil {
				return err
			}
		}
		c.ext.HandleAt(ev.Answer, now)
	case ev.Err != nil:
		return fmt.Errorf("netclient: server error: %s", ev.Err.Msg)
	}
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(ev)
	}
	return nil
}

// noteSeq advances the current channel's sequence high-water mark and the
// per-session receive bookkeeping for a frame received at nowUnixNano,
// and reports whether a gap (missed message) was detected.
func (c *Client) noteSeq(channel int, seq uint64, nowUnixNano int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if channel != c.seqChannel {
		c.seqChannel = channel
		c.stats.LastSeq = 0
	}
	last := c.stats.LastSeq
	if seq > last {
		c.stats.LastSeq = seq
	}
	c.stats.Frames++
	c.stats.LastFrameUnixNano = nowUnixNano
	gap := last != 0 && seq > last+1
	if gap {
		c.stats.GapRefreshes++
	}
	return gap
}
