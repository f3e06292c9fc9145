// Package multicast simulates the dissemination network of §7: a fixed
// set of logical multicast channels over which the server publishes merged
// answers. Each message carries the header of §3.1 — for every addressed
// client, the query identifiers whose answers the message contains (the
// extractor being the original query itself for selection queries).
//
// Every listener is a Queue: a bounded slice queue with one consumer,
// attached to one channel (a client) or to a set of channels (a relay
// feed), which receives every message published on them in publish order.
// Publish and PublishBatch run one delivery loop — Publish is the run of
// one — that assigns sequence numbers, stamps and encodes each message
// once, and appends it to every listener of its channel under the
// listener's own lock. The network keeps exact byte accounting (payload
// bytes sent, delivered, and per-delivery fan-out) so experiments can
// compare measured traffic against the cost model's size(M) and U(Q,M)
// predictions. Optional random loss injection exercises client-side gap
// detection.
//
// Delivery is crash-proof under concurrent cancellation: a queue's mutex
// and closed flag are its one send gate, checked under the mutex before
// every append, and closing the queue releases producers parked for room.
// What happens when a queue is full is its Policy: Block (backpressure,
// the simulator default), Evict (close the slow consumer's queue so one
// stalled client never holds up a publish cycle), or DropNewest (skip the
// message for that listener, surfacing as a sequence gap).
package multicast

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"qsub/internal/metrics"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// HeaderEntry addresses one client within a message: the client must apply
// the extractors of the listed queries to the payload to recover its
// answers. Queries are identified by id; for pure selection queries the
// extractor is the subscription query itself (§3.1), so ids are all the
// header needs to carry.
type HeaderEntry struct {
	ClientID int
	QueryIDs []query.ID
}

// Message is one merged answer published on a channel.
type Message struct {
	// Channel is the logical multicast channel the message travels on.
	Channel int
	// Seq is a per-channel sequence number assigned by the network,
	// letting clients detect lost messages.
	Seq uint64
	// Tuples is the merged answer payload.
	Tuples []relation.Tuple
	// Header lists the addressed clients and their query ids.
	Header []HeaderEntry
	// Delta marks continuous-mode messages that carry only tuples
	// inserted since the previous cycle.
	Delta bool
	// Removed lists tuple ids deleted since the previous cycle that
	// fall inside this merged query's footprint; clients drop them from
	// their accumulated answers (§11 dynamic scenario).
	Removed []uint64
	// PublishedUnixNano is the wall-clock publish timestamp, assigned by
	// the network's clock (see SetClock) together with Seq, so every
	// subscriber — and the encode-once wire frame — carries the same
	// stamp and receivers can measure publish→receive latency. Zero when
	// no clock is installed; the wire encoding omits the field entirely
	// in that case, keeping the frame bytes identical to the pre-stamp
	// format.
	PublishedUnixNano int64
	// Frame is the encode-once wire frame for this message: an opaque,
	// ready-to-write byte slice produced by the network's Encoder (see
	// SetEncoder) exactly once per Publish, after Seq assignment. Every
	// subscriber of the channel receives the same backing array, so the
	// slice is strictly read-only once Publish has run — session writers,
	// eviction drains and late readers all alias it. Nil when no encoder
	// is installed (in-process simulation). A message a relay publishes on
	// its local network arrives with Frame already set — the upstream's
	// bytes — and is delivered as is.
	Frame []byte
}

// PayloadBytes returns the transmission size of the tuple payload plus
// 8 bytes per removal notice.
func (m *Message) PayloadBytes() int {
	n := 8 * len(m.Removed)
	for _, t := range m.Tuples {
		n += t.Size()
	}
	return n
}

// HeaderBytes returns the transmission size of the header: 8 bytes per
// client entry plus 8 per query id. The cost model ignores headers
// ("we expect the size of the header to be very small compared to the
// size of the data", §4); the simulator accounts for them anyway so the
// assumption can be checked.
func (m *Message) HeaderBytes() int {
	n := 0
	for _, e := range m.Header {
		n += 8 + 8*len(e.QueryIDs)
	}
	return n
}

// EntryFor returns the header entry addressing the given client, if any.
func (m *Message) EntryFor(clientID int) (HeaderEntry, bool) {
	for _, e := range m.Header {
		if e.ClientID == clientID {
			return e, true
		}
	}
	return HeaderEntry{}, false
}

// Stats aggregates network traffic counters. All fields are totals since
// the network was created.
type Stats struct {
	// MessagesPublished counts Publish calls that succeeded.
	MessagesPublished uint64
	// PayloadBytesSent is the payload volume placed on channels once
	// per message (the size(M) the server pays for).
	PayloadBytesSent uint64
	// HeaderBytesSent is the header volume placed on channels.
	HeaderBytesSent uint64
	// Deliveries counts message copies handed to subscribers.
	Deliveries uint64
	// PayloadBytesDelivered is the payload volume received by
	// subscribers (fan-out multiplied).
	PayloadBytesDelivered uint64
	// Dropped counts deliveries suppressed by loss injection.
	Dropped uint64
	// SlowEvictions counts subscribers evicted because their buffer was
	// full when a publish arrived (Policy Evict).
	SlowEvictions uint64
	// OverflowDrops counts deliveries skipped because the subscriber's
	// buffer was full (Policy DropNewest); they surface to the client as
	// sequence gaps.
	OverflowDrops uint64
}

// Policy selects what Publish does when a subscriber's delivery buffer is
// full.
type Policy int

const (
	// Block applies backpressure: the publish waits until the subscriber
	// drains (or is canceled). One stalled subscriber stalls the cycle,
	// but no data is lost — the in-process simulator default.
	Block Policy = iota
	// Evict closes the slow subscriber's queue and counts it in
	// Stats.SlowEvictions, so a publish cycle always completes. The
	// daemon's delivery layer uses this by default.
	Evict
	// DropNewest skips this delivery for the full subscriber only,
	// counted in Stats.OverflowDrops; the subscriber observes a sequence
	// gap and can request recovery.
	DropNewest
)

// String returns the policy's flag spelling.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Evict:
		return "evict"
	case DropNewest:
		return "drop"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps the flag spellings back to policies.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "evict":
		return Evict, nil
	case "drop":
		return DropNewest, nil
	}
	return Block, fmt.Errorf("multicast: unknown slow-consumer policy %q (want block, evict or drop)", s)
}

// Network is a set of logical multicast channels.
type Network struct {
	channels int
	lossRate float64

	mu     sync.Mutex
	rng    *rand.Rand
	seqs   []uint64
	closed bool
	// subs holds each channel's listener list as an immutable snapshot:
	// Attach and Close install freshly built slices and never mutate one
	// in place, so a publish can deliver from the snapshot it read under
	// mu without copying it per message.
	subs [][]*Queue

	messagesPublished     atomic.Uint64
	payloadBytesSent      atomic.Uint64
	headerBytesSent       atomic.Uint64
	deliveries            atomic.Uint64
	payloadBytesDelivered atomic.Uint64
	dropped               atomic.Uint64
	slowEvictions         atomic.Uint64
	overflowDrops         atomic.Uint64

	// Optional nil-safe fan-out instrumentation (see SetMetrics),
	// additive to the built-in atomic counters above.
	mDeliveries *metrics.Counter
	mDropped    *metrics.Counter
	mEvicted    *metrics.Counter
	mEncodes    *metrics.Counter

	// encoder, when set, turns each published message into its immutable
	// wire frame exactly once per Publish (see SetEncoder).
	encoder func(Message) []byte

	// nowNano, when set, stamps each published message's
	// PublishedUnixNano once per Publish/PublishBatch call (see
	// SetClock).
	nowNano func() int64
}

// Option configures a Network.
type Option func(*Network)

// WithLoss makes each delivery independently fail with probability rate,
// deterministically for a given seed. Sequence numbers still advance, so
// clients observe gaps.
func WithLoss(rate float64, seed int64) Option {
	return func(n *Network) {
		n.lossRate = rate
		n.rng = rand.New(rand.NewSource(seed))
	}
}

// NewNetwork creates a network with the given number of channels.
func NewNetwork(channels int, opts ...Option) (*Network, error) {
	if channels < 1 {
		return nil, fmt.Errorf("multicast: need at least one channel, got %d", channels)
	}
	n := &Network{
		channels: channels,
		seqs:     make([]uint64, channels),
		subs:     make([][]*Queue, channels),
	}
	for _, o := range opts {
		o(n)
	}
	return n, nil
}

// Channels returns the number of logical channels.
func (n *Network) Channels() int { return n.channels }

// SetMetrics attaches fan-out counters to the network: deliveries
// counts message copies handed to subscribers, dropped counts copies
// suppressed by loss injection or the DropNewest policy, evicted counts
// slow-consumer evictions, encodes counts wire encodes performed by the
// encode-once hook (see SetEncoder). Any may be nil. Call before
// concurrent publishing.
func (n *Network) SetMetrics(deliveries, dropped, evicted, encodes *metrics.Counter) {
	n.mDeliveries = deliveries
	n.mDropped = dropped
	n.mEvicted = evicted
	n.mEncodes = encodes
}

// SetEncoder installs the encode-once hook: Publish calls enc exactly
// once per message — after sequence assignment, before fan-out — and
// attaches the returned frame to the message every subscriber receives,
// so N subscribers share one encoding instead of re-marshaling N times.
// The returned slice must be freshly allocated per call (subscribers may
// alias it indefinitely) and is treated as immutable from that point on.
// enc must be safe for concurrent calls; publishes on channels with no
// subscribers skip encoding entirely. Call before concurrent publishing;
// nil uninstalls the hook.
func (n *Network) SetEncoder(enc func(Message) []byte) { n.encoder = enc }

// SetClock installs the publish timestamp source: each Publish or
// PublishBatch call reads it once — after sequence assignment, before
// encoding — and stamps the result into every message of the call, so
// the encode-once frame carries the timestamp for free. nil (the
// default) disables stamping, leaving PublishedUnixNano zero and the
// wire encoding byte-identical to the timestamp-free format. Tests
// inject a fixed clock to keep published streams deterministic. Call
// before concurrent publishing.
func (n *Network) SetClock(nowNano func() int64) { n.nowNano = nowNano }

// CurrentSeq returns the last sequence number assigned on the channel
// (0 before any publish), letting delivery layers compute how far a
// session has fallen behind the channel head.
func (n *Network) CurrentSeq(channel int) uint64 {
	if channel < 0 || channel >= n.channels {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.seqs[channel]
}

// Queue is the bounded delivery queue of one listener: a double-buffered
// slice queue with one consumer. Producers append under mu; the consumer
// swaps the whole queue out per Next call, so steady state moves messages
// without per-delivery channel operations, allocations or copying. The
// wake and space channels carry at most one token each: wake parks the
// consumer when the queue is empty, space parks producers waiting for
// room when it is full.
//
// A queue receives what is published on the channels it is attached to
// (Network.Attach: one channel for a client, a set for a relay feed; a
// move is a second Attach on the same queue, which keeps what is already
// queued and its consumer) and what its owner pushes itself (Push:
// control frames that must leave in order with the answers around them).
// It holds buffer messages per attached channel; what happens when it is
// full is its Policy.
type Queue struct {
	mu     sync.Mutex
	buf    []Message
	spare  []Message // previous batch, reused on the next swap
	per    int       // capacity per attached channel
	cap    int
	closed bool
	wake   chan struct{}
	space  chan struct{}
	// done closes with the queue, releasing producers parked for space.
	done chan struct{}
	once sync.Once

	policy  Policy
	evicted atomic.Bool

	// net and channels are the queue's attachment — it is in the
	// listener list of each of these channels — written under net.mu and
	// mu together.
	net      *Network
	channels []int
}

// NewQueue creates a detached queue holding up to buffer messages per
// attached channel (at least 1; a detached queue holds buffer).
func NewQueue(buffer int, policy Policy) *Queue {
	if buffer < 1 {
		buffer = 1
	}
	// buf and spare grow with use to the depth the consumer actually
	// lets build up, which is what a connection holds for its lifetime;
	// buffer is the bound, rarely the need.
	return &Queue{
		per:    buffer,
		cap:    buffer,
		wake:   make(chan struct{}, 1),
		space:  make(chan struct{}, 1),
		done:   make(chan struct{}),
		policy: policy,
	}
}

// Push queues a message that was not published on a channel — a control
// frame the queue's owner wants written in order with the answers around
// it. The message is queued as given (no sequence number, no stamp, no
// delivery counters). Control frames are never dropped: a full queue is
// evicted under the Evict policy and makes Push wait for room under Block
// and DropNewest. Push reports false when the queue is, or became, closed.
func (q *Queue) Push(msg Message) bool {
	for {
		q.mu.Lock()
		switch {
		case q.closed:
			q.mu.Unlock()
			return false
		case len(q.buf) < q.cap:
			q.buf = append(q.buf, msg)
			first := len(q.buf) == 1
			q.mu.Unlock()
			if first {
				q.signal()
			}
			return true
		}
		q.mu.Unlock()
		if q.policy == Evict {
			q.evict()
			return false
		}
		select {
		case <-q.space:
		case <-q.done:
			return false
		}
	}
}

// signal leaves the wake token for a consumer parked on an empty queue.
// Producers send it only on the empty→non-empty transition: a consumer
// parks only after observing an empty queue under mu, so whichever
// producer makes it non-empty again is guaranteed to leave a token behind.
func (q *Queue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// evict closes the queue as a slow consumer's and counts the eviction on
// the network it is attached to, once however many publishes find it full
// at the same time (a queue on several channels can be).
func (q *Queue) evict() {
	if !q.evicted.CompareAndSwap(false, true) { // before Close: the consumer sees why
		return
	}
	q.mu.Lock()
	n := q.net
	q.mu.Unlock()
	q.Close()
	if n != nil {
		n.slowEvictions.Add(1)
		n.mEvicted.Inc()
	}
}

// Evicted reports whether the queue was closed by the Evict policy (as
// opposed to Close or the network closing).
func (q *Queue) Evicted() bool { return q.evicted.Load() }

// Close detaches the queue and marks it finished. Messages already
// queued stay readable; a parked consumer wakes to observe the end, and
// producers parked for room are released. Close is idempotent and safe
// to call concurrently with Publish and Push.
func (q *Queue) Close() {
	q.once.Do(func() {
		q.mu.Lock()
		q.closed = true
		n := q.net
		q.mu.Unlock()
		q.signal()
		close(q.done)
		if n != nil {
			n.mu.Lock()
			n.reattach(q)
			n.mu.Unlock()
		}
	})
}

// Depth returns the number of messages queued and not yet consumed. It
// is an instantaneous read meant for lag gauges, not for flow control.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

// Next returns everything queued since the last call, blocking until at
// least one message is queued or the queue is closed. It swaps the whole
// queue out in one mutex-guarded exchange, so a deep queue costs one
// wakeup regardless of depth. The returned slice is owned by the queue
// and valid only until the next call. When ok is false the queue is
// finished and the slice holds its final messages, possibly none. Next
// must only be called from a single consumer goroutine.
func (q *Queue) Next() (batch []Message, ok bool) {
	for {
		q.mu.Lock()
		if len(q.buf) > 0 {
			out := q.buf
			q.buf = q.spare[:0]
			q.spare = out
			closed := q.closed
			q.mu.Unlock()
			// The queue just went empty: hand the space token to at most
			// one producer parked in a backpressure wait.
			select {
			case q.space <- struct{}{}:
			default:
			}
			return out, !closed
		}
		if q.closed {
			q.mu.Unlock()
			return nil, false
		}
		q.mu.Unlock()
		<-q.wake
	}
}

// tally accumulates one publish's delivery counts across its listeners.
type tally struct{ delivered, bytes, overflow uint64 }

// publish appends a run of published messages to the queue under as few
// lock acquisitions as its space allows and applies the queue's policy
// whenever it is full. drop, when non-nil, marks the copies loss injection
// suppresses. payload is the run's payload size; the copies that do not
// land are subtracted from it, so delivered bytes cost nothing per copy.
func (q *Queue) publish(msgs []Message, drop []bool, payload uint64, t *tally) {
	t.bytes += payload
	i := 0
	for i < len(msgs) {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			break
		}
		wasEmpty := len(q.buf) == 0
		for ; i < len(msgs); i++ {
			if drop != nil && drop[i] {
				t.bytes -= uint64(msgs[i].PayloadBytes()) // lost copies need no room
				continue
			}
			if len(q.buf) >= q.cap {
				break
			}
			q.buf = append(q.buf, msgs[i])
			t.delivered++
		}
		nonEmpty := len(q.buf) > 0
		q.mu.Unlock()
		if wasEmpty && nonEmpty {
			q.signal()
		}
		if i == len(msgs) {
			return
		}
		// Full at message i: the policy decides whether the run goes on.
		switch q.policy {
		case Block:
			select {
			case <-q.space:
				continue
			case <-q.done: // closed while waiting
			}
		case DropNewest:
			t.overflow++
			t.bytes -= uint64(msgs[i].PayloadBytes())
			i++ // later messages try again
			continue
		case Evict:
			q.evict()
		}
		break
	}
	t.bytes -= runPayload(msgs[i:]) // never reached the queue
}

// runPayload is the payload size of a run of messages.
func runPayload(msgs []Message) uint64 {
	var p uint64
	for i := range msgs {
		p += uint64(msgs[i].PayloadBytes())
	}
	return p
}

// Subscription is a listener that owns its queue: SubscribeBatch attaches
// a queue of its own to one channel, for callers that neither move it nor
// push into it. Messages arrive in batches through NextBatch; Cancel
// closes the queue.
type Subscription struct{ q *Queue }

// NextBatch is Queue.Next on the subscription's queue.
func (s *Subscription) NextBatch() (batch []Message, ok bool) { return s.q.Next() }

// Cancel detaches the subscription and closes its queue. Messages already
// queued remain readable. Cancel is idempotent and safe to call
// concurrently with Publish from any goroutine.
func (s *Subscription) Cancel() { s.q.Close() }

// Evicted reports whether the subscription was closed by the Evict
// slow-consumer policy (as opposed to an explicit Cancel or network
// Close). Consumers see the eviction as NextBatch reporting the end;
// Evicted tells them why.
func (s *Subscription) Evicted() bool { return s.q.Evicted() }

// add and remove install a fresh listener-list snapshot for the channel
// (see the subs field). Callers hold n.mu.
func (n *Network) add(ch int, q *Queue) {
	subs := n.subs[ch]
	next := make([]*Queue, 0, len(subs)+1)
	next = append(next, subs...)
	n.subs[ch] = append(next, q)
}

func (n *Network) remove(ch int, q *Queue) {
	subs := n.subs[ch]
	if i := slices.Index(subs, q); i >= 0 {
		next := make([]*Queue, 0, len(subs)-1)
		next = append(next, subs[:i]...)
		n.subs[ch] = append(next, subs[i+1:]...)
	}
}

// Attach makes the queue a listener of exactly the given channels,
// replacing whatever it was attached to in one step: from the next
// publish on, the queue receives those channels' messages and no others,
// behind everything already queued. No channels detaches it. The queue's
// capacity becomes its buffer per attached channel, so a feed of several
// channels holds what one queue per channel would. A queue attaches to
// one network in its life.
func (n *Network) Attach(q *Queue, channels ...int) error {
	for _, ch := range channels {
		if ch < 0 || ch >= n.channels {
			return fmt.Errorf("multicast: channel %d outside [0,%d)", ch, n.channels)
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("multicast: network closed")
	}
	return n.reattach(q, channels...)
}

// reattach is Attach under n.mu; Queue.Close calls it with no channels.
func (n *Network) reattach(q *Queue, channels ...int) error {
	q.mu.Lock()
	if q.net != nil && q.net != n {
		q.mu.Unlock()
		return fmt.Errorf("multicast: queue belongs to another network")
	}
	if q.closed && len(channels) > 0 {
		q.mu.Unlock()
		return fmt.Errorf("multicast: queue closed")
	}
	q.net = n
	q.cap = q.per * max(1, len(channels))
	old := q.channels
	q.channels = slices.Clone(channels)
	q.mu.Unlock()
	for _, ch := range old {
		n.remove(ch, q)
	}
	for _, ch := range channels {
		n.add(ch, q)
	}
	return nil
}

// Subscribe attaches a Block-policy listener to the channel:
// SubscribeBatch(channel, buffer, Block).
func (n *Network) Subscribe(channel, buffer int) (*Subscription, error) {
	return n.SubscribeBatch(channel, buffer, Block)
}

// SubscribeBatch attaches a listener with a queue of its own to the one
// channel (see Queue and Attach — the form a caller uses when it does not
// keep the queue across moves). Messages are consumed through NextBatch,
// which drains arbitrarily deep queues in one swap. Under Block, a
// publish waits when the queue is full; under Evict or DropNewest, a
// publish never blocks on this listener. buffer is clamped to at least 1.
func (n *Network) SubscribeBatch(channel, buffer int, policy Policy) (*Subscription, error) {
	q := NewQueue(buffer, policy)
	if err := n.Attach(q, channel); err != nil {
		return nil, err
	}
	return &Subscription{q}, nil
}

// Publish places the message on its channel: it is PublishBatch's run of
// one, and like it allocates nothing of its own.
func (n *Network) Publish(msg Message) error {
	run := [1]Message{msg}
	return n.PublishBatch(run[:])
}

// PublishBatch publishes a run of messages that all travel on the same
// channel: one payload charge on the wire per message, one delivery per
// message and current listener, in run order. The network assigns each
// message's Seq under one lock, then stamps (SetClock) and encodes
// (SetEncoder) it, writing all three back into msgs. Each listener's
// queue is locked once per stretch of available space instead of once
// per message: with thousands of listeners and a hundred-odd messages per
// channel per cycle, the per-delivery mutex round-trip is the dominant
// publish-side cost this removes. A publish blocks only on Block-policy
// listeners with full queues; Evict and DropNewest listeners can never
// stall a publish cycle.
func (n *Network) PublishBatch(msgs []Message) error {
	if len(msgs) == 0 {
		return nil
	}
	ch := msgs[0].Channel
	if ch < 0 || ch >= n.channels {
		return fmt.Errorf("multicast: channel %d outside [0,%d)", ch, n.channels)
	}
	for i := range msgs {
		if msgs[i].Channel != ch {
			return fmt.Errorf("multicast: PublishBatch run spans channels %d and %d", ch, msgs[i].Channel)
		}
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("multicast: network closed")
	}
	for i := range msgs {
		n.seqs[ch]++
		msgs[i].Seq = n.seqs[ch]
	}
	targets := n.subs[ch]
	// Loss is drawn here, with the seqs, one contiguous row per target
	// (target-major), and every drawn drop counts as one.
	var drop []bool
	var lost uint64
	if n.lossRate > 0 && len(targets) > 0 {
		drop = make([]bool, len(targets)*len(msgs))
		for i := range drop {
			if drop[i] = n.rng.Float64() < n.lossRate; drop[i] {
				lost++
			}
		}
	}
	n.mu.Unlock()

	if n.nowNano != nil {
		// One clock read stamps the whole run: the batch shares a
		// publish instant, which is what latency accounting compares
		// against.
		now := n.nowNano()
		for i := range msgs {
			msgs[i].PublishedUnixNano = now
		}
	}
	if n.encoder != nil && len(targets) > 0 {
		// Encode once per message, after seq assignment and stamping (the
		// frame carries both): every listener receives this same
		// immutable frame.
		for i := range msgs {
			msgs[i].Frame = n.encoder(msgs[i])
		}
		n.mEncodes.Add(uint64(len(msgs)))
	}
	payload := runPayload(msgs)
	var header uint64
	for i := range msgs {
		header += uint64(msgs[i].HeaderBytes())
	}
	n.messagesPublished.Add(uint64(len(msgs)))
	n.payloadBytesSent.Add(payload)
	n.headerBytesSent.Add(header)

	var t tally
	for ti, q := range targets {
		var row []bool
		if drop != nil {
			row = drop[ti*len(msgs) : (ti+1)*len(msgs)]
		}
		q.publish(msgs, row, payload, &t)
	}
	n.deliveries.Add(t.delivered)
	n.payloadBytesDelivered.Add(t.bytes)
	n.dropped.Add(lost)
	n.overflowDrops.Add(t.overflow)
	if t.delivered > 0 {
		n.mDeliveries.Add(t.delivered)
	}
	if dc := lost + t.overflow; dc > 0 {
		n.mDropped.Add(dc)
	}
	return nil
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats {
	return Stats{
		MessagesPublished:     n.messagesPublished.Load(),
		PayloadBytesSent:      n.payloadBytesSent.Load(),
		HeaderBytesSent:       n.headerBytesSent.Load(),
		Deliveries:            n.deliveries.Load(),
		PayloadBytesDelivered: n.payloadBytesDelivered.Load(),
		Dropped:               n.dropped.Load(),
		SlowEvictions:         n.slowEvictions.Load(),
		OverflowDrops:         n.overflowDrops.Load(),
	}
}

// Close closes every listener's queue and rejects further publishes.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	var all []*Queue
	for _, subs := range n.subs {
		all = append(all, subs...)
	}
	n.mu.Unlock()
	for _, q := range all {
		q.Close()
	}
}
