package daemon

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/wire"
)

// connReadBuffer sizes the per-connection bufio reader. The daemon's
// coalesced flushes arrive as large segments; reading them through a
// 32 KiB buffer turns many per-frame read syscalls into a few
// buffer refills.
const connReadBuffer = 32 << 10

// Conn is the client side of a daemon session: it subscribes queries and
// consumes the assignment and answer frames the daemon pushes.
type Conn struct {
	conn     net.Conn
	clock    stampReader
	br       *bufio.Reader     // reads through clock
	held     int               // bytes of br the last frame still occupies (see readFrame)
	rbuf     []byte            // reused payload buffer for frames larger than br
	ansMsg   multicast.Message // reused Answer event storage (see Next)
	clientID int
}

// Dial connects to a daemon and introduces the client.
func Dial(addr string, clientID int) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c, clientID)
}

// NewConn introduces the client over an existing connection (e.g. one
// wrapped for fault injection) and returns the session handle. On error
// the connection is closed.
func NewConn(c net.Conn, clientID int) (*Conn, error) {
	if err := wire.WriteFrame(c, wire.TypeHello, wire.MarshalHello(wire.Hello{ClientID: clientID})); err != nil {
		c.Close()
		return nil, err
	}
	conn := &Conn{conn: c, clock: stampReader{r: c}, clientID: clientID}
	conn.br = bufio.NewReaderSize(&conn.clock, connReadBuffer)
	return conn, nil
}

// stampReader reads the wall clock once per Read that returns bytes: the
// frames a read completes share the one receive instant, which they do
// in fact share, and a listener pays for the clock per socket read rather
// than per frame.
type stampReader struct {
	r  io.Reader
	at int64 // UnixNano at which the last Read that returned bytes returned
}

func (s *stampReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if n > 0 {
		s.at = time.Now().UnixNano()
	}
	return n, err
}

// Subscribe registers a query with the daemon.
func (c *Conn) Subscribe(q query.Query) error {
	payload, err := wire.MarshalSubscribe(wire.Subscribe{Query: q})
	if err != nil {
		return err
	}
	return wire.WriteFrame(c.conn, wire.TypeSubscribe, payload)
}

// Unsubscribe removes a query by id.
func (c *Conn) Unsubscribe(id query.ID) error {
	return wire.WriteFrame(c.conn, wire.TypeUnsubscribe, wire.MarshalUnsubscribe(wire.Unsubscribe{ID: id}))
}

// Ready signals that the client finished registering subscriptions.
func (c *Conn) Ready() error {
	return wire.WriteFrame(c.conn, wire.TypeReady, nil)
}

// Refresh asks the daemon to publish full answers on the next cycle
// instead of a delta — the gap-recovery request a client sends after its
// sequence numbers show it missed messages.
func (c *Conn) Refresh() error {
	return wire.WriteFrame(c.conn, wire.TypeRefresh, nil)
}

// Event is one server-pushed frame, decoded. Exactly one of Assigned,
// Answer and Err is set. An Answer is borrowed from the connection (see
// Next).
type Event struct {
	// Assigned is the channel assignment after a planning cycle.
	Assigned *wire.Assigned
	// Answer is one merged answer message.
	Answer *multicast.Message
	// Err is a server-reported error.
	Err *wire.Error
	// ReceivedUnixNano is the local wall-clock time at which the socket
	// read that completed the frame returned. Frames completed by one
	// read share it; along a connection it does not decrease unless the
	// wall clock steps back.
	ReceivedUnixNano int64
}

// Next blocks for the next server-pushed event. It returns an error when
// the connection ends or an unexpected frame arrives.
//
// Frames are parsed in place: a frame that fits the read buffer is
// decoded from the buffer's own bytes, which are released on the next
// call, and the Answer message is decoded into Conn-owned storage. So an
// Event's Answer — the message and every slice in it, tuple payloads
// included — is valid only until the next call to Next, and callers that
// retain any of it past that must copy it. The one exception is a
// message whose header addresses this connection's client id: its
// payloads are copied into one block of their own, because that is the
// only message an extractor for this client keeps tuples from. A listener
// thus discards a message it does not want without allocating.
func (c *Conn) Next() (Event, error) {
	ft, payload, err := c.readFrame()
	if err != nil {
		return Event{}, err
	}
	switch ft {
	case wire.TypeAssigned:
		a, err := wire.UnmarshalAssigned(payload)
		if err != nil {
			return Event{}, err
		}
		return Event{Assigned: &a, ReceivedUnixNano: c.clock.at}, nil
	case wire.TypeAnswer:
		m := &c.ansMsg
		if err := wire.UnmarshalMessageInto(m, payload); err != nil {
			return Event{}, err
		}
		if _, addressed := m.EntryFor(c.clientID); addressed {
			wire.CopyPayloads(m)
		}
		return Event{Answer: m, ReceivedUnixNano: c.clock.at}, nil
	case wire.TypeError:
		e, err := wire.UnmarshalError(payload)
		if err != nil {
			return Event{}, err
		}
		return Event{Err: &e, ReceivedUnixNano: c.clock.at}, nil
	case wire.TypeBye:
		return Event{}, fmt.Errorf("daemon: server said goodbye")
	default:
		return Event{}, fmt.Errorf("daemon: unexpected frame type %d", ft)
	}
}

// readFrame returns the next frame's type and payload. The payload lies
// in the read buffer — consumed only by the following call, which is
// what keeps it intact until then — or, for a frame larger than the
// buffer, in c.rbuf. It fails the way wire.ReadFrameAppend does.
func (c *Conn) readFrame() (uint8, []byte, error) {
	_, _ = c.br.Discard(c.held) // cannot fail: these bytes were peeked
	c.held = 0
	hdr, err := c.br.Peek(wire.HeaderSize)
	if err != nil {
		return 0, nil, cutShort(err, len(hdr))
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > wire.MaxFrameSize {
		return 0, nil, wire.ErrFrameTooLarge
	}
	size := wire.HeaderSize + int(n)
	if size > c.br.Size() {
		ft, payload, err := wire.ReadFrameAppend(c.rbuf[:0], c.br)
		c.rbuf = payload
		return ft, payload, err
	}
	frame, err := c.br.Peek(size)
	if err != nil {
		return 0, nil, cutShort(err, len(frame))
	}
	c.held = size
	return frame[4], frame[wire.HeaderSize:], nil
}

// cutShort turns the io.EOF of a Peek that got some of a frame into
// io.ErrUnexpectedEOF, as wire.ReadFrameAppend reports a stream that ends
// anywhere inside a frame.
func cutShort(err error, got int) error {
	if err == io.EOF && got > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Close ends the session politely.
func (c *Conn) Close() error {
	_ = wire.WriteFrame(c.conn, wire.TypeBye, nil)
	return c.conn.Close()
}
