package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// The fuzzers assert the decoder's only failure mode is a clean error:
// no panics, no runaway allocation, and re-encoding a successfully
// decoded value reproduces identical bytes (canonical encoding).

func FuzzUnmarshalSubscribe(f *testing.F) {
	seed, _ := MarshalSubscribe(Subscribe{Query: query.Range(7, geom.R(1, 2, 3, 4))})
	f.Add(seed)
	poly, _ := MarshalSubscribe(Subscribe{Query: query.Query{
		ID:     9,
		Region: geom.ConvexHull([]geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 2, Y: 3}}),
	}})
	f.Add(poly)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSubscribe(data)
		if err != nil {
			return
		}
		re, err := MarshalSubscribe(s)
		if err != nil {
			t.Fatalf("decoded value fails to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encoding differs: % x vs % x", re, data)
		}
	})
}

func FuzzUnmarshalMessage(f *testing.F) {
	msg := multicast.Message{
		Channel: 1,
		Seq:     2,
		Tuples:  []relation.Tuple{{ID: 3, Pos: geom.Pt(4, 5), Payload: []byte("p")}},
		Header:  []multicast.HeaderEntry{{ClientID: 6, QueryIDs: []query.ID{7}}},
	}
	f.Add(MarshalMessage(msg))
	stamped := msg
	stamped.PublishedUnixNano = 1_754_650_000_123_456_789
	f.Add(MarshalMessage(stamped))
	f.Add(MarshalMessage(benchMsg()))
	f.Add(MarshalMessage(multicast.Message{Tuples: []relation.Tuple{{ID: 1}}, Header: []multicast.HeaderEntry{{ClientID: 1}}}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, 40))
	dirty := dirtyMessage()
	f.Fuzz(func(t *testing.T, data []byte) {
		// The field-by-field decoder UnmarshalMessageInto replaced is the
		// oracle: same error text for every input, same message for what
		// both accept.
		var want multicast.Message
		wantErr := unmarshalMessageOracle(&want, data)
		m, err := UnmarshalMessage(data)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, oracle %v", err, wantErr)
		}
		// The borrowing form, decoding over the remains of a larger
		// message, must accept exactly what the owning form accepts and
		// produce the same message.
		var into multicast.Message
		if err := UnmarshalMessageInto(&into, dirty); err != nil {
			t.Fatal(err)
		}
		into.Frame = []byte("stale frame")
		intoErr := UnmarshalMessageInto(&into, data)
		if fmt.Sprint(intoErr) != fmt.Sprint(err) {
			t.Fatalf("owning form: %v, decode-into form: %v", err, intoErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(MarshalMessage(m), data) {
			t.Fatal("re-encoding differs from input")
		}
		if !bytes.Equal(MarshalMessage(into), data) {
			t.Fatal("re-encoding the decode-into form differs from input")
		}
		emptyToNil(&m)
		emptyToNil(&into)
		emptyToNil(&want)
		if !reflect.DeepEqual(m, into) {
			t.Fatalf("decode-into form differs:\n%+v\n%+v", m, into)
		}
		if !reflect.DeepEqual(into, want) {
			t.Fatalf("decoded\n%+v\noracle\n%+v", into, want)
		}
	})
}

// unmarshalMessageOracle is the reference decoder for UnmarshalMessageInto:
// one bounds-checked decoder call per field, the first error sticky.
func unmarshalMessageOracle(m *multicast.Message, b []byte) error {
	d := decoder{buf: b}
	m.Frame = nil
	m.Channel = int(d.u32())
	m.Seq = d.u64()
	flag := d.u8()
	if flag&^flagKnown != 0 && d.err == nil {
		d.err = fmt.Errorf("wire: unknown message flag bits %#x", flag&^flagKnown)
	}
	m.Delta = flag&flagDelta != 0
	m.PublishedUnixNano = 0
	if flag&flagTimestamp != 0 {
		m.PublishedUnixNano = int64(d.u64())
		if m.PublishedUnixNano == 0 && d.err == nil {
			d.err = errors.New("wire: non-canonical zero publish timestamp")
		}
	}
	nTuples := d.u32()
	if d.err == nil && uint64(len(d.buf)) < uint64(nTuples)*28 {
		d.fail()
	}
	if d.err == nil {
		m.Tuples = resize(m.Tuples, nTuples)
		for i := range m.Tuples {
			m.Tuples[i] = relation.Tuple{
				ID:      d.u64(),
				Pos:     geom.Pt(d.f64(), d.f64()),
				Payload: d.view(),
			}
		}
	}
	nHeader := d.u32()
	if d.err == nil && uint64(len(d.buf)) < uint64(nHeader)*12 {
		d.fail()
	}
	if d.err == nil {
		m.Header = resize(m.Header, nHeader)
		for i := range m.Header {
			h := &m.Header[i]
			h.ClientID = int(int64(d.u64()))
			nIDs := d.u32()
			if uint64(len(d.buf)) < uint64(nIDs)*8 {
				d.fail()
				break
			}
			h.QueryIDs = resize(h.QueryIDs, nIDs)
			for j := range h.QueryIDs {
				h.QueryIDs[j] = query.ID(d.u64())
			}
		}
	}
	nRemoved := d.u32()
	if d.err == nil && uint64(len(d.buf)) < uint64(nRemoved)*8 {
		d.fail()
	}
	m.Removed = m.Removed[:0]
	if d.err == nil && nRemoved > 0 {
		m.Removed = resize(m.Removed, nRemoved)
		for i := range m.Removed {
			m.Removed[i] = d.u64()
		}
	}
	return d.done()
}

// dirtyMessage encodes what a reused destination held before: every
// slice of it is longer than what the fuzz seeds decode to, and every
// scalar is set.
func dirtyMessage() []byte {
	big := multicast.Message{Channel: 9, Seq: 99, Delta: true, PublishedUnixNano: 12345,
		Removed: []uint64{1, 2, 3, 4, 5, 6}}
	for i := 0; i < 8; i++ {
		big.Tuples = append(big.Tuples, relation.Tuple{ID: uint64(100 + i), Pos: geom.Pt(1, 2), Payload: []byte("stale payload")})
		big.Header = append(big.Header, multicast.HeaderEntry{ClientID: 50 + i, QueryIDs: []query.ID{1, 2, 3, 4, 5}})
	}
	return MarshalMessage(big)
}

// emptyToNil erases the one difference reuse may leave between two
// decodings of the same bytes: an empty slice that kept its storage. It
// also zeroes NaN coordinates, which DeepEqual holds unequal to
// themselves (re-encoding has compared their bits).
func emptyToNil(m *multicast.Message) {
	if len(m.Tuples) == 0 {
		m.Tuples = nil
	}
	for i := range m.Tuples {
		if p := &m.Tuples[i].Pos; anyNaN(p.X, p.Y) {
			*p = geom.Point{}
		}
	}
	if len(m.Header) == 0 {
		m.Header = nil
	}
	for i := range m.Header {
		if len(m.Header[i].QueryIDs) == 0 {
			m.Header[i].QueryIDs = nil
		}
	}
	if len(m.Removed) == 0 {
		m.Removed = nil
	}
}

func FuzzUnmarshalRelaySub(f *testing.F) {
	f.Add(MarshalRelaySub(RelaySub{}))
	f.Add(MarshalRelaySub(RelaySub{Mask: ChannelMask(3, 5, 64)}))
	f.Add([]byte{0, 0, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := UnmarshalRelaySub(data)
		if err != nil {
			return
		}
		if !bytes.Equal(MarshalRelaySub(rs), data) {
			t.Fatal("re-encoding differs from input")
		}
	})
}

func FuzzUnmarshalRelayAck(f *testing.F) {
	f.Add(MarshalRelayAck(RelayAck{Hop: 2, Channels: 64}))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := UnmarshalRelayAck(data)
		if err != nil {
			return
		}
		if !bytes.Equal(MarshalRelayAck(a), data) {
			t.Fatal("re-encoding differs from input")
		}
	})
}

func FuzzUnmarshalRelayCtl(f *testing.F) {
	f.Add(MarshalRelayCtl(RelayCtl{ClientID: 7, Inner: TypeHello, Payload: MarshalHello(Hello{ClientID: 7})}))
	f.Add(MarshalRelayCtl(RelayCtl{ClientID: -3, Inner: TypeBye}))
	f.Add(MarshalRelayCtl(RelayCtl{ClientID: 1, Inner: 99}))
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rc, err := UnmarshalRelayCtl(data)
		if err != nil {
			return
		}
		if !bytes.Equal(MarshalRelayCtl(rc), data) {
			t.Fatal("re-encoding differs from input")
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, TypeHello, []byte("hi"))
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0, 1})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful read must round-trip through WriteFrame.
		var out bytes.Buffer
		if err := WriteFrame(&out, ft, payload); err != nil {
			t.Fatalf("re-framing failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("re-framed bytes differ")
		}
	})
}
