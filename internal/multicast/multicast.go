// Package multicast simulates the dissemination network of §7: a fixed
// set of logical multicast channels over which the server publishes merged
// answers. Each message carries the header of §3.1 — for every addressed
// client, the query identifiers whose answers the message contains (the
// extractor being the original query itself for selection queries).
//
// Clients subscribe to exactly one channel and receive every message
// published on it, concurrently, each on its own goroutine-friendly Go
// channel. The network keeps exact byte accounting (payload bytes sent,
// delivered, and per-delivery fan-out) so experiments can compare measured
// traffic against the cost model's size(M) and U(Q,M) predictions.
// Optional random loss injection exercises client-side gap detection.
//
// Delivery is crash-proof under concurrent cancellation: every
// subscription carries a send gate (a mutex plus a closed flag) that
// Publish checks before touching the subscriber's channel, so Cancel and
// Close can never race a publish into a send on a closed channel. What
// happens when a subscriber's buffer is full is a per-subscription
// Policy: Block (backpressure, the simulator default), Evict (cancel the
// slow consumer so one stalled client never holds up a publish cycle),
// or DropNewest (skip the message for that subscriber, surfacing as a
// sequence gap).
package multicast

import (
	"fmt"
	"math/rand"
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
	// Evict cancels the slow subscriber and counts it in
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
	policy   Policy // default for Subscribe

	mu     sync.Mutex
	rng    *rand.Rand
	seqs   []uint64
	closed bool
	// subs holds each channel's subscriber list as an immutable
	// snapshot: Subscribe, Cancel and Close install freshly built slices
	// and never mutate one in place, so Publish can deliver from the
	// snapshot it read under mu without copying it per message.
	subs [][]*Subscription

	messagesPublished     atomic.Uint64
	payloadBytesSent      atomic.Uint64
	headerBytesSent       atomic.Uint64
	deliveries            atomic.Uint64
	payloadBytesDelivered atomic.Uint64
	dropped               atomic.Uint64
	slowEvictions         atomic.Uint64
	overflowDrops         atomic.Uint64

	perChannel []channelCounters

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

	// onEvict, when set, observes each slow-consumer eviction after the
	// subscription has been canceled (see SetEvictHandler).
	onEvict func(*Subscription)
}

// channelCounters holds the per-channel slice of the traffic counters.
type channelCounters struct {
	messages atomic.Uint64
	payload  atomic.Uint64
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

// WithPolicy sets the slow-consumer policy Subscribe attaches to new
// subscriptions (SubscribeWith overrides it per subscription).
func WithPolicy(p Policy) Option {
	return func(n *Network) { n.policy = p }
}

// NewNetwork creates a network with the given number of channels.
func NewNetwork(channels int, opts ...Option) (*Network, error) {
	if channels < 1 {
		return nil, fmt.Errorf("multicast: need at least one channel, got %d", channels)
	}
	n := &Network{
		channels:   channels,
		seqs:       make([]uint64, channels),
		subs:       make([][]*Subscription, channels),
		perChannel: make([]channelCounters, channels),
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

// SetEvictHandler registers a callback observing slow-consumer
// evictions. It is called from inside Publish, once per evicted
// subscription, after the subscription has been canceled. Call before
// concurrent publishing.
func (n *Network) SetEvictHandler(h func(*Subscription)) { n.onEvict = h }

// sendResult is the outcome of one delivery attempt.
type sendResult int

const (
	sendOK   sendResult = iota // delivered
	sendFull                   // buffer full, subscription still live
	sendGone                   // subscription canceled
)

// Subscription is one listener's attachment to a channel. Messages arrive
// on C; Cancel detaches and closes C. Subscriptions created with
// SubscribeBatch have no C: they own a Queue of their own, their messages
// arrive in batches through NextBatch, and Cancel closes that queue.
type Subscription struct {
	// C delivers the channel's messages in publish order. Nil for batch
	// subscriptions (see SubscribeBatch / NextBatch).
	C <-chan Message

	net     *Network
	channel int
	policy  Policy
	ch      chan Message
	// ring replaces ch as the delivery queue: the subscription is one of
	// the queue's channel attachments (see Network.Attach).
	ring *Queue
	// done closes when Cancel runs, releasing publishers blocked in a
	// backpressure send before ch itself is closed.
	done chan struct{}
	once sync.Once

	// mu and closed form the send gate: every send on ch happens either
	// under mu with closed false, or registered in inflight while closed
	// was false. Cancel flips closed under mu, wakes blocked senders via
	// done, waits out inflight, and only then closes ch — so a send on a
	// closed channel is impossible by construction. (Queue attachments
	// gate through the queue's own mutex instead.)
	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup

	evicted atomic.Bool
}

// Queue is the bounded delivery queue a connection owns for its whole
// life: a double-buffered slice queue with one consumer. Producers append
// under mu; the consumer swaps the whole queue out per Next call, so
// steady state moves messages without per-delivery channel operations,
// allocations or copying. The wake and space channels carry at most one
// token each: wake parks the consumer when the queue is empty, space
// parks producers waiting for room when it is full.
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

	// net and subs are the queue's attachment — one Subscription in the
	// subscriber list of each attached channel — written under net.mu
	// and mu together.
	net  *Network
	subs []*Subscription
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

// push appends one message under the queue's send gate. The wake token is
// only sent on the empty→non-empty transition: a consumer parks only
// after observing an empty queue under mu, so whichever producer makes
// it non-empty again is guaranteed to leave a token behind.
func (q *Queue) push(msg Message) sendResult {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return sendGone
	}
	if len(q.buf) >= q.cap {
		q.mu.Unlock()
		return sendFull
	}
	q.buf = append(q.buf, msg)
	first := len(q.buf) == 1
	q.mu.Unlock()
	if first {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
	return sendOK
}

// pushWait is push with backpressure: it loops on the space token — the
// consumer releases one per drain — re-attempting the gated push each
// time, until the message is queued or the queue closes.
func (q *Queue) pushWait(msg Message) sendResult {
	for {
		if res := q.push(msg); res != sendFull {
			return res
		}
		select {
		case <-q.space:
		case <-q.done:
			return sendGone
		}
	}
}

// Push queues a message that was not published on a channel — a control
// frame the queue's owner wants written in order with the answers around
// it. The message is queued as given (no sequence number, no stamp, no
// delivery counters). Control frames are never dropped: a full queue is
// evicted under the Evict policy and makes Push wait for room under Block
// and DropNewest. Push reports false when the queue is, or became, closed.
func (q *Queue) Push(msg Message) bool {
	res := q.push(msg)
	if res == sendFull {
		if q.policy == Evict {
			q.evict()
			return false
		}
		res = q.pushWait(msg)
	}
	return res == sendOK
}

// evict closes the queue as a slow consumer's and counts the eviction on
// the network it is attached to; it reports whether this call was the one
// that did (a queue on several channels can be found full by several
// publishes at once).
func (q *Queue) evict() bool {
	if !q.evicted.CompareAndSwap(false, true) { // before Close: the consumer sees why
		return false
	}
	q.mu.Lock()
	n := q.net
	q.mu.Unlock()
	q.Close()
	if n != nil {
		n.slowEvictions.Add(1)
		n.mEvicted.Inc()
	}
	return true
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
		select {
		case q.wake <- struct{}{}:
		default:
		}
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

// Evicted reports whether the subscription was canceled by the Evict
// slow-consumer policy (as opposed to an explicit Cancel or network
// Close). Consumers see the eviction as their range loop over C ending;
// Evicted tells them why.
func (s *Subscription) Evicted() bool {
	if s.ring != nil {
		return s.ring.Evicted()
	}
	return s.evicted.Load()
}

// Cancel detaches the subscription and closes its message channel (for a
// batch subscription, its queue). Messages already buffered remain
// readable. Cancel is idempotent and safe to call concurrently with
// Publish from any goroutine.
func (s *Subscription) Cancel() {
	if s.ring != nil {
		s.ring.Close()
		return
	}
	s.once.Do(func() {
		s.net.detach(s)
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.done)     // release publishers blocked in backpressure
		s.inflight.Wait() // no sender is touching ch anymore
		close(s.ch)
	})
}

// NextBatch is Queue.Next on a batch subscription's queue (see
// SubscribeBatch); it panics on channel-mode subscriptions.
func (s *Subscription) NextBatch() (batch []Message, ok bool) { return s.ring.Next() }

// trySend attempts a non-blocking delivery under the send gate.
func (s *Subscription) trySend(msg Message) sendResult {
	if s.ring != nil {
		return s.ring.push(msg)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return sendGone
	}
	select {
	case s.ch <- msg:
		s.mu.Unlock()
		return sendOK
	default:
	}
	s.mu.Unlock()
	return sendFull
}

// blockingSend waits for buffer space (backpressure); cancellation
// releases it. For channel subscriptions the send itself happens outside
// mu but is covered by inflight, which Cancel drains before closing ch;
// queue attachments wait on the queue (see Queue.pushWait), so the
// send-on-closed guarantee holds without a WaitGroup.
func (s *Subscription) blockingSend(msg Message) sendResult {
	if s.ring != nil {
		return s.ring.pushWait(msg)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return sendGone
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()
	select {
	case s.ch <- msg:
		return sendOK
	case <-s.done:
		return sendGone
	}
}

// detach removes the subscription from its channel's subscriber list.
func (n *Network) detach(s *Subscription) {
	n.mu.Lock()
	n.remove(s)
	n.mu.Unlock()
}

// add and remove install a fresh subscriber-list snapshot for the
// subscription's channel (see the subs field). Callers hold n.mu.
func (n *Network) add(s *Subscription) {
	subs := n.subs[s.channel]
	next := make([]*Subscription, 0, len(subs)+1)
	next = append(next, subs...)
	n.subs[s.channel] = append(next, s)
}

func (n *Network) remove(s *Subscription) {
	subs := n.subs[s.channel]
	for i, sub := range subs {
		if sub == s {
			next := make([]*Subscription, 0, len(subs)-1)
			next = append(next, subs[:i]...)
			n.subs[s.channel] = append(next, subs[i+1:]...)
			return
		}
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
	old := q.subs
	q.subs = make([]*Subscription, len(channels))
	for i, ch := range channels {
		q.subs[i] = &Subscription{net: n, channel: ch, policy: q.policy, ring: q}
	}
	subs := q.subs
	q.mu.Unlock()
	for _, s := range old {
		n.remove(s)
	}
	for _, s := range subs {
		n.add(s)
	}
	return nil
}

// Subscribe attaches a listener to the channel with the given delivery
// buffer and the network's default slow-consumer policy (Block unless
// WithPolicy configured otherwise).
func (n *Network) Subscribe(channel, buffer int) (*Subscription, error) {
	return n.SubscribeWith(channel, buffer, n.policy)
}

// SubscribeWith attaches a listener with an explicit slow-consumer
// policy. Under Block, Publish waits when the subscriber's buffer is
// full; under Evict or DropNewest, Publish never blocks on this
// subscriber.
func (n *Network) SubscribeWith(channel, buffer int, policy Policy) (*Subscription, error) {
	if channel < 0 || channel >= n.channels {
		return nil, fmt.Errorf("multicast: channel %d outside [0,%d)", channel, n.channels)
	}
	if buffer < 0 {
		buffer = 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("multicast: network closed")
	}
	ch := make(chan Message, buffer)
	sub := &Subscription{
		C:       ch,
		net:     n,
		channel: channel,
		policy:  policy,
		ch:      ch,
		done:    make(chan struct{}),
	}
	n.add(sub)
	return sub, nil
}

// SubscribeBatch attaches a batch-mode listener: a queue of its own,
// attached to the one channel (see Queue and Attach — the form a caller
// uses when it does not keep the queue across moves). Messages are
// consumed through NextBatch instead of C (which is nil), and each
// delivery is a mutex-guarded append rather than a channel send: with
// thousands of subscribers per publish, that cuts the per-delivery cost
// to a fraction of a channel operation and lets the consumer drain
// arbitrarily deep queues in one swap. Policies, eviction, loss
// injection and the crash-proof cancellation guarantees behave exactly
// as with SubscribeWith. buffer is clamped to at least 1 (a batch
// subscription has no rendezvous mode).
func (n *Network) SubscribeBatch(channel, buffer int, policy Policy) (*Subscription, error) {
	if channel < 0 || channel >= n.channels {
		return nil, fmt.Errorf("multicast: channel %d outside [0,%d)", channel, n.channels)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("multicast: network closed")
	}
	q := NewQueue(buffer, policy)
	n.reattach(q, channel)
	return q.subs[0], nil // stable under n.mu
}

// Publish places the message on its channel: one payload charge on the
// wire, one delivery per current subscriber. The message's Seq field is
// assigned by the network. Publish blocks only on Block-policy
// subscribers with full buffers; Evict and DropNewest subscribers can
// never stall a publish cycle.
func (n *Network) Publish(msg Message) error {
	if msg.Channel < 0 || msg.Channel >= n.channels {
		return fmt.Errorf("multicast: channel %d outside [0,%d)", msg.Channel, n.channels)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("multicast: network closed")
	}
	n.seqs[msg.Channel]++
	msg.Seq = n.seqs[msg.Channel]
	// Subscriber lists are immutable snapshots (see the subs field), so
	// the steady-state publish path delivers without copying the list.
	targets := n.subs[msg.Channel]
	var drop []bool
	if n.lossRate > 0 {
		drop = make([]bool, len(targets))
		for i := range targets {
			drop[i] = n.rng.Float64() < n.lossRate
		}
	}
	n.mu.Unlock()

	if n.nowNano != nil {
		msg.PublishedUnixNano = n.nowNano()
	}
	if n.encoder != nil && len(targets) > 0 {
		// Encode once per publish: every subscriber below receives this
		// same immutable frame. Encoding happens after seq assignment
		// and timestamping (the frame carries both) and outside the
		// network lock.
		msg.Frame = n.encoder(msg)
		n.mEncodes.Inc()
	}

	payload := uint64(msg.PayloadBytes())
	n.messagesPublished.Add(1)
	n.payloadBytesSent.Add(payload)
	n.headerBytesSent.Add(uint64(msg.HeaderBytes()))
	n.perChannel[msg.Channel].messages.Add(1)
	n.perChannel[msg.Channel].payload.Add(payload)
	var delivered, droppedCount uint64
	var evicted []*Subscription
	for i, sub := range targets {
		if drop != nil && drop[i] {
			n.dropped.Add(1)
			droppedCount++
			continue
		}
		res := sub.trySend(msg)
		if res == sendFull {
			switch sub.policy {
			case Block:
				res = sub.blockingSend(msg)
			case DropNewest:
				n.overflowDrops.Add(1)
				droppedCount++
				continue
			case Evict:
				evicted = append(evicted, sub)
				continue
			}
		}
		if res != sendOK {
			continue // canceled between snapshot and delivery
		}
		n.deliveries.Add(1)
		n.payloadBytesDelivered.Add(payload)
		delivered++
	}
	n.evictAll(evicted)
	if delivered > 0 {
		n.mDeliveries.Add(delivered)
	}
	if droppedCount > 0 {
		n.mDropped.Add(droppedCount)
	}
	return nil
}

// PublishBatch publishes a run of messages that all travel on the same
// channel. It is observably equivalent to calling Publish on each
// message in order, but amortizes the per-subscriber synchronization
// across the run: sequence numbers are assigned under one network lock,
// and each batch-mode subscriber's ring is locked once per stretch of
// available space instead of once per message. With thousands of
// subscribers and a hundred-odd messages per channel per cycle, the
// per-delivery mutex round-trip is the dominant publish-side cost this
// removes. Channel-mode subscribers receive the run as ordinary
// per-message sends.
func (n *Network) PublishBatch(msgs []Message) error {
	switch len(msgs) {
	case 0:
		return nil
	case 1:
		return n.Publish(msgs[0])
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
	// drop is the loss matrix, one contiguous row per target.
	var drop []bool
	if n.lossRate > 0 && len(targets) > 0 {
		drop = make([]bool, len(targets)*len(msgs))
		for i := range drop {
			drop[i] = n.rng.Float64() < n.lossRate
		}
	}
	n.mu.Unlock()

	payloads := make([]uint64, len(msgs))
	var sentPayload, sentHeader uint64
	for i := range msgs {
		p := uint64(msgs[i].PayloadBytes())
		payloads[i] = p
		sentPayload += p
		sentHeader += uint64(msgs[i].HeaderBytes())
	}
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
		for i := range msgs {
			msgs[i].Frame = n.encoder(msgs[i])
		}
		n.mEncodes.Add(uint64(len(msgs)))
	}
	n.messagesPublished.Add(uint64(len(msgs)))
	n.payloadBytesSent.Add(sentPayload)
	n.headerBytesSent.Add(sentHeader)
	n.perChannel[ch].messages.Add(uint64(len(msgs)))
	n.perChannel[ch].payload.Add(sentPayload)

	var delivered, deliveredBytes, lossDrops, overflow uint64
	var evicted []*Subscription
	for ti, sub := range targets {
		var dropRow []bool
		if drop != nil {
			dropRow = drop[ti*len(msgs) : (ti+1)*len(msgs)]
		}
		if sub.ring == nil {
			// Channel-mode subscriber: per-message sends, as in Publish. A
			// canceled or evicted subscriber ends its run early — the
			// remaining messages could not land anyway.
			for i := range msgs {
				if dropRow != nil && dropRow[i] {
					lossDrops++
					continue
				}
				res := sub.trySend(msgs[i])
				if res == sendFull {
					switch sub.policy {
					case Block:
						res = sub.blockingSend(msgs[i])
					case DropNewest:
						overflow++
						continue
					case Evict:
						evicted = append(evicted, sub)
						res = sendGone
					}
				}
				if res != sendOK {
					break
				}
				delivered++
				deliveredBytes += payloads[i]
			}
			continue
		}
		// Batch-mode subscriber: append the whole run under as few ring
		// lock acquisitions as buffer space allows.
		r := sub.ring
		i := 0
	run:
		for i < len(msgs) {
			r.mu.Lock()
			if r.closed {
				r.mu.Unlock()
				break
			}
			wasEmpty := len(r.buf) == 0
			for i < len(msgs) {
				if dropRow != nil && dropRow[i] {
					lossDrops++ // loss drops need no buffer space
					i++
					continue
				}
				if len(r.buf) >= r.cap {
					break
				}
				r.buf = append(r.buf, msgs[i])
				delivered++
				deliveredBytes += payloads[i]
				i++
			}
			nonEmpty := len(r.buf) > 0
			r.mu.Unlock()
			if wasEmpty && nonEmpty {
				select {
				case r.wake <- struct{}{}:
				default:
				}
			}
			if i >= len(msgs) {
				break
			}
			// Ring full mid-run: apply the slow-consumer policy, then
			// re-acquire and continue the run.
			switch sub.policy {
			case Block:
				select {
				case <-r.space:
				case <-r.done:
					break run // canceled while waiting
				}
			case DropNewest:
				overflow++
				i++ // this message is dropped; later ones re-attempt
			case Evict:
				evicted = append(evicted, sub)
				break run
			}
		}
	}
	n.deliveries.Add(delivered)
	n.payloadBytesDelivered.Add(deliveredBytes)
	n.dropped.Add(lossDrops)
	n.overflowDrops.Add(overflow)
	n.evictAll(evicted)
	if delivered > 0 {
		n.mDeliveries.Add(delivered)
	}
	if dc := lossDrops + overflow; dc > 0 {
		n.mDropped.Add(dc)
	}
	return nil
}

// evictAll cancels subscribers whose buffers were full under the Evict
// policy, counting and reporting each eviction.
func (n *Network) evictAll(evicted []*Subscription) {
	for _, sub := range evicted {
		if sub.ring != nil {
			if !sub.ring.evict() {
				continue
			}
		} else {
			sub.evicted.Store(true) // before Cancel: consumers see why C closed
			sub.Cancel()
			n.slowEvictions.Add(1)
			n.mEvicted.Inc()
		}
		if n.onEvict != nil {
			n.onEvict(sub)
		}
	}
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

// ChannelStats returns the per-channel published message and payload
// counts, indexed by channel — the load-balance view the §8 allocator is
// trying to shape.
func (n *Network) ChannelStats() []struct{ Messages, PayloadBytes uint64 } {
	out := make([]struct{ Messages, PayloadBytes uint64 }, n.channels)
	for i := range out {
		out[i].Messages = n.perChannel[i].messages.Load()
		out[i].PayloadBytes = n.perChannel[i].payload.Load()
	}
	return out
}

// Close cancels every subscription and rejects further publishes.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	var all []*Subscription
	for _, subs := range n.subs {
		all = append(all, subs...)
	}
	n.mu.Unlock()
	for _, sub := range all {
		sub.Cancel()
	}
}
