// Package fanout is the one dissemination node of the delivery fabric
// (§2, §7: publish each merged answer once per channel, every listener of
// the channel receives it), run by the root daemon at hop 0 and by every
// relay: a Hub serves connections and keeps the client registry (node.go),
// and a Session is the delivery side of one connection.
//
// A Session owns a bounded multicast.Queue from Hello to teardown and one
// writer goroutine that drains it. The writer is the only code that
// writes to the connection, so everything the session is sent — answer
// frames published on the channels its queue is attached to, and control
// frames (Assigned, wrapped RelayCtl, RelayAck, Error, Bye) pushed into
// the same queue — leaves in the order it was queued. Moving a session to
// another channel re-attaches the queue; the writer, the queue and what
// is already in it stay. A queue that fills is handled by its slow-
// consumer policy; whichever way a queue ends (teardown, eviction, write
// failure), the writer flushes what it can and closes the connection.
//
// Framing contract: every message published on a network that a session
// attaches to carries its frame — the root's network encodes each message
// once as it is published (multicast.Network.SetEncoder, installed by
// daemon.New), and a relay publishes the upstream's frames as they
// arrived. The writer only ever writes those bytes; it never encodes.
//
// Accounting rule: the qsub_fanout_* frame counters (FramesWritten,
// Bytes) count answer frames only, so FramesWritten equals
// FanoutDeliveries at quiescence on every tier; control frames ride the
// same flushes uncounted.
package fanout

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"qsub/internal/metrics"
	"qsub/internal/multicast"
	"qsub/internal/wire"
)

// maxBatch caps how many queued frames the writer coalesces into one
// vectored flush. 256 frames stays well under typical iovec limits
// (IOV_MAX is 1024; net.Buffers chunks internally anyway) while
// amortizing the per-flush deadline and syscall cost ~256x for deep
// queues.
const maxBatch = 256

// control is the Channel of a queued message that was pushed by the
// session's owner rather than published on a channel.
const control = -1

// Default Limits of a node's sessions, root daemon's and relay's alike.
const (
	DefaultWriteTimeout     = 10 * time.Second
	DefaultSubscriberBuffer = 256
)

// Limits are the per-session hardening parameters, read when a session
// opens.
type Limits struct {
	// Buffer is the delivery queue depth per attached channel.
	Buffer int
	// Policy decides what happens when the queue is full.
	Policy multicast.Policy
	// WriteTimeout bounds each flush; zero disables write deadlines.
	WriteTimeout time.Duration
}

// Hub is one node: the live sessions of one process — it counts them,
// sweeps their delivery lag and ends them at shutdown — and the client
// registry that routes control frames between them and the upstream.
type Hub struct {
	metrics *metrics.Catalog
	now     func() int64
	logf    func(format string, args ...any)
	up      Upstream

	mu       sync.Mutex
	sessions map[*Session]struct{}
	closed   bool
	wg       sync.WaitGroup // connections Serve started

	// cmu guards the client registry: every client id registered at this
	// node, the session that owns it and what it subscribed. Upstream
	// Control runs under it.
	cmu     sync.Mutex
	clients map[int]*client
}

// NewHub creates a hub reporting into cat whose control plane leads to
// up. now is the clock of the lag accounting (UnixNano); logf receives
// diagnostics.
func NewHub(cat *metrics.Catalog, now func() int64, logf func(format string, args ...any), up Upstream) *Hub {
	return &Hub{metrics: cat, now: now, logf: logf, up: up,
		sessions: make(map[*Session]struct{}), clients: make(map[int]*client)}
}

// Session is the delivery side of one connection.
type Session struct {
	// ClientID is the id the connection introduced itself with.
	ClientID int

	hub          *Hub
	conn         net.Conn
	q            *multicast.Queue
	writeTimeout time.Duration
	done         chan struct{} // closed when the writer exited

	mu       sync.Mutex
	net      *multicast.Network
	channels []int // current attachment
	feed     bool  // relay feed: attached to a channel set
	// seqs[ch] is the newest sequence number written on channel ch, the
	// session's side of its sequence lag (see lag.go).
	seqs          []atomic.Uint64
	lastWriteNano atomic.Int64
}

// Open starts the delivery side of a connection that has said Hello: an
// unattached queue and the writer that owns every further write to conn.
func (h *Hub) Open(conn net.Conn, clientID int, lim Limits) (*Session, error) {
	s := &Session{
		ClientID:     clientID,
		hub:          h,
		conn:         conn,
		q:            multicast.NewQueue(lim.Buffer, lim.Policy),
		writeTimeout: lim.WriteTimeout,
		done:         make(chan struct{}),
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, errors.New("fanout: closed")
	}
	h.sessions[s] = struct{}{}
	h.metrics.SessionsConnected.Set(int64(len(h.sessions)))
	h.mu.Unlock()
	go s.write()
	return s, nil
}

// Len returns the number of live sessions.
func (h *Hub) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.sessions)
}

// Closed reports whether Close has run.
func (h *Hub) Closed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// Sessions snapshots the live sessions.
func (h *Hub) Sessions() []*Session {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Session, 0, len(h.sessions))
	for s := range h.sessions {
		out = append(out, s)
	}
	return out
}

// Close ends every session and refuses new ones; it reports false when
// the hub was already closed. Gracefully, each session is sent a Bye
// behind whatever it still has queued and its writer drains (bounded by
// the write deadline) before the connection closes; otherwise queues and
// connections are cut at once. Each connection's read loop notices and
// tears down as for any disconnect; Close returns once they all have.
func (h *Hub) Close(graceful bool) bool {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return false
	}
	h.closed = true
	h.mu.Unlock()
	for _, s := range h.Sessions() {
		if graceful {
			s.Push(wire.TypeBye, nil)
			s.Finish()
		} else {
			s.Abort()
		}
	}
	h.wg.Wait()
	return true
}

// Bind attaches a client session's queue to its one channel, replacing
// any previous attachment; moved is false when it was already there.
// Frames of the old channel already queued are still written, in order,
// ahead of anything pushed or published afterwards.
func (s *Session) Bind(net *multicast.Network, channel int) (moved bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.feed && len(s.channels) == 1 && s.channels[0] == channel {
		return false, nil
	}
	return true, s.attach(net, channel)
}

// Feed turns the session into a relay feed: its queue receives every
// answer frame of the channel set.
func (s *Session) Feed(net *multicast.Network, channels []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.attach(net, channels...); err != nil {
		return err
	}
	if !s.feed {
		s.feed = true
		s.hub.metrics.RelaySessions.Add(1)
	}
	return nil
}

// attach re-attaches the queue; callers hold s.mu.
func (s *Session) attach(net *multicast.Network, channels ...int) error {
	if s.seqs == nil {
		// Before the first attach: the writer reads seqs only for frames
		// published after it.
		s.seqs = make([]atomic.Uint64, net.Channels())
	}
	if err := net.Attach(s.q, channels...); err != nil {
		return err
	}
	// A session owes nothing that was published before it joined.
	for _, ch := range channels {
		s.seqs[ch].Store(net.CurrentSeq(ch))
	}
	s.net, s.channels = net, channels
	return nil
}

// IsFeed reports whether the session was upgraded into a relay feed.
func (s *Session) IsFeed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.feed
}

// Push queues one control frame in-band: it is written after everything
// queued before it and ahead of everything queued later. It reports false
// when the session's queue is closed (or was evicted for being full).
func (s *Session) Push(frameType uint8, payload []byte) bool {
	return s.q.Push(multicast.Message{Channel: control, Frame: wire.AppendFrame(nil, frameType, payload)})
}

// Finish ends the session in order: the queue closes, the writer flushes
// what it holds (bounded by the write deadline) and closes the connection.
func (s *Session) Finish() {
	s.q.Close()
	<-s.done
}

// Abort cuts the session without waiting: the queue closes and the
// connection with it, which the owner's read loop notices.
func (s *Session) Abort() {
	s.q.Close()
	s.conn.Close()
}

// Close tears the session down and joins its writer. It is what the
// owner of a connection runs when its read loop ends, and is idempotent.
func (s *Session) Close() {
	s.Abort()
	<-s.done
	h := s.hub
	h.mu.Lock()
	if _, ok := h.sessions[s]; ok {
		delete(h.sessions, s)
		h.metrics.SessionsConnected.Set(int64(len(h.sessions)))
		if s.IsFeed() {
			h.metrics.RelaySessions.Add(-1)
		}
	}
	h.mu.Unlock()
}

// write is the session's writer: it swaps the queue out, coalesces up to
// maxBatch frames into one vectored flush and accounts for the answer
// frames among them, until the queue ends or a write fails. The batch
// only ever holds aliases; shared frame bytes are never copied or mutated
// here (net.Buffers consumes the slice headers, not the arrays they point
// to).
func (s *Session) write() {
	defer close(s.done)
	m := s.hub.metrics
	werr := s.drain()
	s.q.Close()
	// An eviction can land while the writer is blocked in a write, so the
	// evicted check covers both exits.
	var ne net.Error
	switch {
	case s.q.Evicted():
		m.SessionsEvicted.Inc()
		s.hub.logf("fanout: client %d evicted as a slow consumer", s.ClientID)
		if werr == nil {
			s.flush(net.Buffers{wire.AppendFrame(nil, wire.TypeError,
				wire.MarshalError(wire.Error{Msg: "evicted: delivery queue full"}))})
		}
	case errors.As(werr, &ne) && ne.Timeout():
		m.SessionsExpiredWrite.Inc()
	}
	// The session cannot make progress without its stream; closing the
	// connection lets the owner's read loop tear the rest down.
	s.conn.Close()
}

// drain runs the write loop; it returns the write error that ended it, or
// nil when the queue did.
func (s *Session) drain() error {
	m := s.hub.metrics
	batch := make(net.Buffers, 0, maxBatch)
	for {
		msgs, ok := s.q.Next()
		for len(msgs) > 0 {
			n := min(len(msgs), maxBatch)
			batch = batch[:0]
			var answers, bytes uint64
			for i := range msgs[:n] {
				if msgs[i].Channel != control {
					answers++
					bytes += uint64(len(msgs[i].Frame))
				}
				batch = append(batch, msgs[i].Frame)
			}
			m.FanoutBytes.Add(bytes)
			if err := s.flush(batch); err != nil {
				return err
			}
			m.FanoutFramesWritten.Add(answers)
			m.FanoutFlushes.Inc()
			// The newest sequence number per channel: the last frame of
			// each run of one channel.
			for i := range msgs[:n] {
				if ch := msgs[i].Channel; ch != control && (i+1 == n || msgs[i+1].Channel != ch) {
					s.seqs[ch].Store(msgs[i].Seq)
				}
			}
			s.lastWriteNano.Store(s.hub.now())
			msgs = msgs[n:]
		}
		if !ok {
			return nil
		}
	}
}

// flush writes a batch of ready-to-write frames under a single write
// deadline. On TCP connections net.Buffers turns the batch into one
// writev; other conns degrade to sequential writes, still under one
// deadline. The batch is passed by value because WriteTo consumes the
// slice it is invoked on; the caller's copy stays intact for reuse.
func (s *Session) flush(batch net.Buffers) error {
	if s.writeTimeout > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	}
	_, err := batch.WriteTo(s.conn)
	return err
}
