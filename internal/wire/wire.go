// Package wire defines the binary protocol spoken between the qsubd
// subscription daemon and its TCP clients. It turns the in-process
// simulation into a deployable system: clients subscribe queries over a
// socket, learn their multicast channel assignment, and receive merged
// answer messages with extraction headers — the same §3.1 structures the
// simulator uses, serialized with a simple length-prefixed framing.
//
// Frame layout:
//
//	uint32  payload length (big endian, excluding the 5-byte prefix)
//	uint8   frame type
//	[]byte  payload (type-specific)
//
// All integers are big endian; strings and byte slices are uint32-length
// prefixed. Floats are IEEE 754 bits.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/query"
)

// Frame types.
const (
	// TypeHello introduces a client (client → server).
	TypeHello uint8 = iota + 1
	// TypeSubscribe registers a query (client → server).
	TypeSubscribe
	// TypeUnsubscribe removes a query (client → server).
	TypeUnsubscribe
	// TypeReady asks the server to include the client in the next
	// planning cycle (client → server).
	TypeReady
	// TypeAssigned tells the client its multicast channel (server →
	// client).
	TypeAssigned
	// TypeAnswer carries one merged answer message (server → client).
	TypeAnswer
	// TypeError reports a failure (server → client).
	TypeError
	// TypeBye ends the session (either direction).
	TypeBye
	// TypeRefresh asks the server to publish full answers on the next
	// cycle instead of a delta (client → server). Clients send it after
	// detecting a sequence gap (or after reconnecting mid-stream) so
	// their accumulated answers are rebuilt rather than left holed.
	TypeRefresh
	// TypeRelaySub upgrades a session into a relay feed (relay →
	// upstream, sent right after Hello): instead of subscribing queries,
	// the session subscribes a channel set — a bitmask — and from then
	// on receives every answer frame published on those channels,
	// verbatim, for re-fan-out to its own downstream sessions.
	TypeRelaySub
	// TypeRelayAck answers a RelaySub (upstream → relay) with the
	// relay's hop depth and the network's channel count.
	TypeRelayAck
	// TypeRelayCtl wraps a control frame on behalf of a downstream
	// client routed through a relay (both directions): relay → upstream
	// carries the client's Hello/Subscribe/Unsubscribe/Refresh/Bye;
	// upstream → relay carries the Assigned/Error frames destined for
	// that client. Client ids are global across the relay tree, so
	// multi-hop relays forward these frames without rewriting them.
	TypeRelayCtl
)

// MaxFrameSize bounds a frame payload; larger frames are rejected to
// protect against corrupt streams.
const MaxFrameSize = 64 << 20

// HeaderSize is the fixed frame header length: a big-endian uint32
// payload length followed by one type byte (§3.1 framing).
const HeaderSize = 5

// ErrFrameTooLarge is returned for frames exceeding MaxFrameSize.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// Hello introduces a client to the daemon.
type Hello struct {
	ClientID int
}

// Subscribe registers a geographic range query.
type Subscribe struct {
	Query query.Query
}

// Unsubscribe removes a query by id.
type Unsubscribe struct {
	ID query.ID
}

// Assigned tells a client which channel it listens on and the estimated
// cycle cost.
type Assigned struct {
	Channel       int
	EstimatedCost float64
	InitialCost   float64
}

// Error reports a server-side failure.
type Error struct {
	Msg string
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, frameType uint8, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = frameType
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// AppendFrame appends one complete frame — header and payload — to buf
// and returns the extended slice: the in-memory form of WriteFrame, for
// frames that travel through a delivery queue before they reach a socket.
// buf grows at most once, to the exact size when it was nil.
func AppendFrame(buf []byte, frameType uint8, payload []byte) []byte {
	buf = slices.Grow(buf, HeaderSize+len(payload))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, frameType)
	return append(buf, payload...)
}

// ReadFrame reads one frame from r into a fresh payload slice.
func ReadFrame(r io.Reader) (frameType uint8, payload []byte, err error) {
	return ReadFrameAppend(nil, r)
}

// ReadFrameAppend reads one frame from r, placing the payload into buf's
// backing array when capacity allows. The returned payload aliases buf,
// so steady-state readers can reuse one per-connection buffer —
// `ft, payload, err := ReadFrameAppend(buf[:0], r); buf = payload` — and
// read without allocating, provided the previous payload is no longer
// needed when the buffer is reused. Every Unmarshal function copies the
// bytes it keeps except UnmarshalMessageInto, whose tuple payloads stay
// slices of the payload it was given.
//
// A payload larger than buf grows as its bytes arrive, by frameChunk and
// then by about doubling, so what a peer makes the reader allocate is
// bounded by what it actually sent, not by the length its header
// declares. A stream that ends inside a frame, header or payload, fails
// with io.ErrUnexpectedEOF; one that ends between frames with io.EOF.
func ReadFrameAppend(buf []byte, r io.Reader) (frameType uint8, payload []byte, err error) {
	// The header is read into the reusable buffer too: a stack array
	// would escape through the io.Reader parameter and cost one
	// allocation per frame.
	if cap(buf) < 5 {
		buf = make([]byte, 0, 512)
	}
	hdr := buf[:5]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	frameType = hdr[4]
	if n > MaxFrameSize {
		return 0, buf, ErrFrameTooLarge
	}
	payload = buf[:0]
	for len(payload) < n {
		payload = slices.Grow(payload, min(n-len(payload), max(len(payload), frameChunk)))
		got, err := io.ReadFull(r, payload[len(payload):min(n, cap(payload))])
		payload = payload[:len(payload)+got]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return 0, payload[:0], err
		}
	}
	return frameType, payload, nil
}

// frameChunk is the first step by which ReadFrameAppend grows a payload
// buffer that is too small for the frame being read.
const frameChunk = 64 << 10

// --- encode-once frames ----------------------------------------------------

// AppendMessageFrame appends a complete TypeAnswer frame — 5-byte header
// plus MarshalMessageAppend payload — to buf and returns the extended
// slice. Like MarshalMessageAppend it reuses buf's backing array when
// capacity allows, so an encoder that keeps its buffer stays
// allocation-free in steady state.
//
// Aliasing contract: a frame handed to the delivery layer
// (multicast.Message.Frame) is immutable. Forwarders, eviction drains and
// refresh republishes may all hold the same backing array concurrently;
// none of them may write to it, and the encoder must never reuse the
// buffer for a later message. The -race stress tests pin this.
func AppendMessageFrame(buf []byte, m multicast.Message) []byte {
	start := len(buf)
	// One allocation of the exact size when buf has no room (the
	// encode-once hook passes nil: every frame is a fresh slice), instead
	// of append doubling its way there through four smaller ones.
	buf = slices.Grow(buf, HeaderSize+messageSize(m))
	buf = append(buf, 0, 0, 0, 0, TypeAnswer)
	buf = MarshalMessageAppend(buf, m)
	binary.BigEndian.PutUint32(buf[start:start+4], uint32(len(buf)-start-5))
	return buf
}

// --- primitive encoders ---------------------------------------------------

type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) f64(v float64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *encoder) bytes(v []byte) {
	e.u32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}
func (e *encoder) str(v string) { e.bytes([]byte(v)) }

type decoder struct {
	buf []byte
	err error
}

// errTruncated reports a payload that ends before the value being read.
var errTruncated = errors.New("wire: truncated payload")

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errTruncated
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.buf) < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// view returns the next length-prefixed byte string as a slice of the
// input (nil when empty); bytes returns a copy of it.
func (d *decoder) view() []byte {
	n := d.u32()
	if d.err != nil || uint32(len(d.buf)) < n {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	v := d.buf[:n:n]
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) bytes() []byte { return append([]byte(nil), d.view()...) }

func (d *decoder) str() string { return string(d.view()) }

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes in payload", len(d.buf))
	}
	return nil
}

// --- region encoding --------------------------------------------------------

// Region kind tags.
const (
	regionRect uint8 = iota + 1
	regionPolygon
	regionUnion
)

func encodeRegion(e *encoder, r geom.Region) error {
	switch t := r.(type) {
	case geom.Rect:
		e.u8(regionRect)
		e.f64(t.MinX)
		e.f64(t.MinY)
		e.f64(t.MaxX)
		e.f64(t.MaxY)
	case geom.Polygon:
		e.u8(regionPolygon)
		e.u32(uint32(len(t)))
		for _, p := range t {
			e.f64(p.X)
			e.f64(p.Y)
		}
	case geom.Union:
		e.u8(regionUnion)
		e.u32(uint32(len(t)))
		for _, r := range t {
			e.f64(r.MinX)
			e.f64(r.MinY)
			e.f64(r.MaxX)
			e.f64(r.MaxY)
		}
	default:
		return fmt.Errorf("wire: unsupported region type %T", r)
	}
	return nil
}

func decodeRegion(d *decoder) geom.Region {
	switch kind := d.u8(); kind {
	case regionRect:
		return geom.R(d.f64(), d.f64(), d.f64(), d.f64())
	case regionPolygon:
		n := d.u32()
		if uint64(len(d.buf)) < uint64(n)*16 {
			d.fail()
			return nil
		}
		pg := make(geom.Polygon, n)
		for i := range pg {
			pg[i] = geom.Pt(d.f64(), d.f64())
		}
		return pg
	case regionUnion:
		n := d.u32()
		if uint64(len(d.buf)) < uint64(n)*32 {
			d.fail()
			return nil
		}
		u := make(geom.Union, n)
		for i := range u {
			u[i] = geom.R(d.f64(), d.f64(), d.f64(), d.f64())
		}
		return u
	default:
		if d.err == nil {
			d.err = fmt.Errorf("wire: unknown region kind %d", kind)
		}
		return nil
	}
}

// --- frame payload marshaling -------------------------------------------

// MarshalHello encodes a Hello payload.
func MarshalHello(h Hello) []byte {
	var e encoder
	e.u64(uint64(int64(h.ClientID)))
	return e.buf
}

// UnmarshalHello decodes a Hello payload.
func UnmarshalHello(b []byte) (Hello, error) {
	d := decoder{buf: b}
	h := Hello{ClientID: int(int64(d.u64()))}
	return h, d.done()
}

// MarshalSubscribe encodes a Subscribe payload.
func MarshalSubscribe(s Subscribe) ([]byte, error) {
	var e encoder
	e.u64(uint64(s.Query.ID))
	if err := encodeRegion(&e, s.Query.Region); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// UnmarshalSubscribe decodes a Subscribe payload.
func UnmarshalSubscribe(b []byte) (Subscribe, error) {
	d := decoder{buf: b}
	s := Subscribe{Query: query.Query{ID: query.ID(d.u64()), Region: decodeRegion(&d)}}
	return s, d.done()
}

// MarshalUnsubscribe encodes an Unsubscribe payload.
func MarshalUnsubscribe(u Unsubscribe) []byte {
	var e encoder
	e.u64(uint64(u.ID))
	return e.buf
}

// UnmarshalUnsubscribe decodes an Unsubscribe payload.
func UnmarshalUnsubscribe(b []byte) (Unsubscribe, error) {
	d := decoder{buf: b}
	u := Unsubscribe{ID: query.ID(d.u64())}
	return u, d.done()
}

// MarshalAssigned encodes an Assigned payload.
func MarshalAssigned(a Assigned) []byte {
	var e encoder
	e.u32(uint32(a.Channel))
	e.f64(a.EstimatedCost)
	e.f64(a.InitialCost)
	return e.buf
}

// UnmarshalAssigned decodes an Assigned payload.
func UnmarshalAssigned(b []byte) (Assigned, error) {
	d := decoder{buf: b}
	a := Assigned{Channel: int(d.u32()), EstimatedCost: d.f64(), InitialCost: d.f64()}
	return a, d.done()
}

// MarshalError encodes an Error payload.
func MarshalError(e2 Error) []byte {
	var e encoder
	e.str(e2.Msg)
	return e.buf
}

// UnmarshalError decodes an Error payload.
func UnmarshalError(b []byte) (Error, error) {
	d := decoder{buf: b}
	out := Error{Msg: d.str()}
	return out, d.done()
}

// MarshalMessage encodes a multicast answer message into a fresh slice.
func MarshalMessage(m multicast.Message) []byte {
	return MarshalMessageAppend(nil, m)
}

// Message flag bits. The byte after Seq started life as a bare 0/1
// delta marker; it is now a bitmask, and decoders written before a bit
// existed reject frames carrying it rather than misparse the bytes that
// follow (the strict unknown-bit check below). Frames with no optional
// field set encode byte-identically to the original format.
const (
	// flagDelta marks continuous-mode messages carrying only tuples
	// inserted since the previous cycle.
	flagDelta uint8 = 1 << 0
	// flagTimestamp marks frames carrying a publish timestamp: a u64
	// UnixNano immediately follows the flag byte.
	flagTimestamp uint8 = 1 << 1

	flagKnown = flagDelta | flagTimestamp
)

// messageSize is len(MarshalMessageAppend(nil, m)).
func messageSize(m multicast.Message) int {
	n := 4 + 8 + 1 + 4 + 4 + 4 + 8*len(m.Removed)
	if m.PublishedUnixNano != 0 {
		n += 8
	}
	for i := range m.Tuples {
		n += 8 + 8 + 8 + 4 + len(m.Tuples[i].Payload)
	}
	for i := range m.Header {
		n += 8 + 4 + 8*len(m.Header[i].QueryIDs)
	}
	return n
}

// MarshalMessageAppend appends the encoding of a multicast answer message
// to buf and returns the extended slice. The returned slice aliases buf's
// backing array (when capacity allows), so steady-state senders can reuse
// one per-connection buffer — `buf = MarshalMessageAppend(buf[:0], msg)` —
// and encode without allocating, provided the previous frame has been
// fully written before the buffer is reused.
func MarshalMessageAppend(buf []byte, m multicast.Message) []byte {
	e := encoder{buf: buf}
	e.u32(uint32(m.Channel))
	e.u64(m.Seq)
	var flag uint8
	if m.Delta {
		flag |= flagDelta
	}
	if m.PublishedUnixNano != 0 {
		flag |= flagTimestamp
	}
	e.u8(flag)
	if m.PublishedUnixNano != 0 {
		e.u64(uint64(m.PublishedUnixNano))
	}
	e.u32(uint32(len(m.Tuples)))
	for _, t := range m.Tuples {
		e.u64(t.ID)
		e.f64(t.Pos.X)
		e.f64(t.Pos.Y)
		e.bytes(t.Payload)
	}
	e.u32(uint32(len(m.Header)))
	for _, h := range m.Header {
		e.u64(uint64(int64(h.ClientID)))
		e.u32(uint32(len(h.QueryIDs)))
		for _, id := range h.QueryIDs {
			e.u64(uint64(id))
		}
	}
	e.u32(uint32(len(m.Removed)))
	for _, id := range m.Removed {
		e.u64(id)
	}
	return e.buf
}

// UnmarshalMessage decodes a multicast answer message into storage of its
// own: UnmarshalMessageInto a fresh Message, then CopyPayloads.
func UnmarshalMessage(b []byte) (multicast.Message, error) {
	var m multicast.Message
	if err := UnmarshalMessageInto(&m, b); err != nil {
		return m, err
	}
	CopyPayloads(&m)
	return m, nil
}

// CopyPayloads moves every tuple payload of m into one freshly allocated
// block, so that m no longer aliases the buffer it was decoded from.
func CopyPayloads(m *multicast.Message) {
	total := 0
	for i := range m.Tuples {
		total += len(m.Tuples[i].Payload)
	}
	if total == 0 {
		return
	}
	block := make([]byte, 0, total)
	for i := range m.Tuples {
		if p := m.Tuples[i].Payload; len(p) > 0 {
			start := len(block)
			block = append(block, p...)
			m.Tuples[i].Payload = block[start:len(block):len(block)]
		}
	}
}

// resize returns s with length n, keeping its backing array — and the
// elements beyond its old length, whose own slices are reused in turn —
// when the capacity allows. The result is never nil: an empty list
// decodes to an empty slice whether or not there was storage to reuse.
func resize[T any](s []T, n uint32) []T {
	if s == nil || uint32(cap(s)) < n {
		return make([]T, n)
	}
	return s[:n]
}

// UnmarshalMessageInto decodes a multicast answer message into *m,
// overwriting every field. It reuses the storage m already holds (Tuples,
// Header, each entry's QueryIDs, Removed), and the tuple payloads it
// produces are slices of b: the message borrows b and is valid only as
// long as b is. Callers that keep payloads past that call CopyPayloads.
// On error m is left in an unspecified state.
//
// It runs on every frame every listener receives, so it checks lengths
// once per tuple (its 28 fixed bytes and its payload together) and once
// per list of query ids or removals, and reads the fields between the
// checks directly.
func UnmarshalMessageInto(m *multicast.Message, b []byte) error {
	m.Frame = nil
	if len(b) < 13 {
		return errTruncated
	}
	m.Channel = int(binary.BigEndian.Uint32(b[0:4]))
	m.Seq = binary.BigEndian.Uint64(b[4:12])
	flag := b[12]
	b = b[13:]
	if flag&^flagKnown != 0 {
		return fmt.Errorf("wire: unknown message flag bits %#x", flag&^flagKnown)
	}
	m.Delta = flag&flagDelta != 0
	m.PublishedUnixNano = 0
	if flag&flagTimestamp != 0 {
		if len(b) < 8 {
			return errTruncated
		}
		m.PublishedUnixNano = int64(binary.BigEndian.Uint64(b[:8]))
		b = b[8:]
		if m.PublishedUnixNano == 0 {
			// A zero stamp is encoded by omitting the field; accepting
			// both spellings would break the canonical-encoding
			// invariant the fuzzers pin.
			return errors.New("wire: non-canonical zero publish timestamp")
		}
	}

	n, b, ok := listLen(b, 28)
	if !ok {
		return errTruncated
	}
	tuples := resize(m.Tuples, n)
	m.Tuples = tuples
	for i := range tuples {
		if len(b) < 28 {
			return errTruncated
		}
		fixed := b[:28]
		size := binary.BigEndian.Uint32(fixed[24:28])
		if uint64(len(b)-28) < uint64(size) {
			return errTruncated
		}
		end := 28 + int(size)
		rest := b[end:] // first: it proves the payload's slice in bounds
		t := &tuples[i]
		t.ID = binary.BigEndian.Uint64(fixed[0:8])
		t.Pos.X = math.Float64frombits(binary.BigEndian.Uint64(fixed[8:16]))
		t.Pos.Y = math.Float64frombits(binary.BigEndian.Uint64(fixed[16:24]))
		t.Payload = nil
		if size > 0 {
			t.Payload = b[28:end:end]
		}
		b = rest
	}

	if n, b, ok = listLen(b, 12); !ok {
		return errTruncated
	}
	header := resize(m.Header, n)
	m.Header = header
	for i := range header {
		if len(b) < 12 {
			return errTruncated
		}
		fixed := b[:12]
		h := &header[i]
		h.ClientID = int(int64(binary.BigEndian.Uint64(fixed[0:8])))
		nIDs := binary.BigEndian.Uint32(fixed[8:12])
		b = b[12:]
		if uint64(len(b)) < uint64(nIDs)*8 {
			return errTruncated
		}
		h.QueryIDs = resize(h.QueryIDs, nIDs)
		b = decodeU64s(h.QueryIDs, b)
	}

	if n, b, ok = listLen(b, 8); !ok {
		return errTruncated
	}
	m.Removed = m.Removed[:0]
	if n > 0 {
		m.Removed = resize(m.Removed, n)
		b = decodeU64s(m.Removed, b)
	}
	if len(b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes in payload", len(b))
	}
	return nil
}

// listLen reads a list's uint32 element count from the front of b and
// returns it with the rest of b, or ok false when b is too short for the
// count or for count elements of at least minSize bytes each.
func listLen(b []byte, minSize uint64) (n uint32, rest []byte, ok bool) {
	if len(b) < 4 {
		return 0, b, false
	}
	n = binary.BigEndian.Uint32(b[:4])
	rest = b[4:]
	return n, rest, uint64(len(rest)) >= uint64(n)*minSize
}

// decodeU64s fills dst with the big-endian uint64s at the front of b,
// which the caller has checked holds len(dst) of them, and returns the
// rest of b.
func decodeU64s[T ~uint64](dst []T, b []byte) []byte {
	src := b[:8*len(dst)]
	for i := range dst {
		dst[i] = T(binary.BigEndian.Uint64(src[8*i : 8*i+8]))
	}
	return b[len(src):]
}
