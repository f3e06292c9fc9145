package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
)

func benchMsg() multicast.Message {
	rng := rand.New(rand.NewSource(3))
	tuples := make([]relation.Tuple, 500)
	for i := range tuples {
		tuples[i] = relation.Tuple{ID: uint64(i + 1), Pos: geom.Pt(rng.Float64(), rng.Float64()), Payload: []byte("payload")}
	}
	return multicast.Message{Channel: 2, Seq: 9, Delta: true, Tuples: tuples,
		Header: []multicast.HeaderEntry{
			{ClientID: 1, QueryIDs: []query.ID{1, 2}},
			{ClientID: 2, QueryIDs: []query.ID{3}},
		},
		Removed: []uint64{4, 5}}
}

func TestMarshalMessageAppendMatchesMarshalMessage(t *testing.T) {
	m := benchMsg()
	fresh := MarshalMessage(m)
	appended := MarshalMessageAppend(nil, m)
	if !bytes.Equal(fresh, appended) {
		t.Fatal("MarshalMessageAppend(nil, m) differs from MarshalMessage(m)")
	}
	// Appending after a prefix preserves the prefix and the encoding.
	prefix := []byte{0xde, 0xad}
	out := MarshalMessageAppend(append([]byte(nil), prefix...), m)
	if !bytes.Equal(out[:2], prefix) {
		t.Fatal("prefix clobbered")
	}
	if !bytes.Equal(out[2:], fresh) {
		t.Fatal("encoding after prefix differs")
	}
	// Round trip through the decoder.
	got, err := UnmarshalMessage(out[2:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != m.Seq || len(got.Tuples) != len(m.Tuples) || !got.Delta {
		t.Fatalf("round trip mangled the message: %+v", got)
	}
}

// TestMarshalMessageAppendZeroAlloc pins the buffer-reuse contract: once
// the buffer has grown to frame size, steady-state encoding allocates
// nothing.
func TestMarshalMessageAppendZeroAlloc(t *testing.T) {
	m := benchMsg()
	buf := MarshalMessageAppend(nil, m)
	allocs := testing.AllocsPerRun(100, func() {
		buf = MarshalMessageAppend(buf[:0], m)
	})
	if allocs != 0 {
		t.Fatalf("MarshalMessageAppend with warm buffer: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkMarshalMessage is the fresh-allocation encoder baseline.
func BenchmarkMarshalMessage(b *testing.B) {
	m := benchMsg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MarshalMessage(m)
	}
}

// BenchmarkMarshalMessageAppend is the steady-state encoder: one reused
// buffer per connection, as the daemon's forwarders encode.
func BenchmarkMarshalMessageAppend(b *testing.B) {
	m := benchMsg()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = MarshalMessageAppend(buf[:0], m)
	}
}

// TestUnmarshalMessageIntoBorrows pins the two halves of the receive
// path's ownership rule: the decode-into form's payloads are slices of
// the input and its warm steady state allocates nothing; CopyPayloads
// detaches the message from the input with one allocation.
func TestUnmarshalMessageIntoBorrows(t *testing.T) {
	want := benchMsg()
	data := MarshalMessage(want)
	var m multicast.Message
	if err := UnmarshalMessageInto(&m, data); err != nil {
		t.Fatal(err)
	}
	if !messageEqual(want, m) {
		t.Fatal("decode-into form mangled the message")
	}
	inInput := func(p []byte) bool {
		for i := range data {
			if &data[i] == &p[0] {
				return true
			}
		}
		return false
	}
	if !inInput(m.Tuples[0].Payload) || !inInput(m.Tuples[len(m.Tuples)-1].Payload) {
		t.Fatal("decode-into payloads should alias the input")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := UnmarshalMessageInto(&m, data); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("UnmarshalMessageInto into warm storage: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { CopyPayloads(&m) }); allocs != 1 {
		t.Fatalf("CopyPayloads: %v allocs/op, want 1", allocs)
	}
	if inInput(m.Tuples[0].Payload) {
		t.Fatal("CopyPayloads left a payload in the input")
	}
	// The copies are the message's own: the input may be overwritten, and
	// appending to one payload does not run into its neighbour.
	for i := range data {
		data[i] = 0xAA
	}
	m.Tuples[0].Payload = append(m.Tuples[0].Payload, "overflow"...)
	m.Tuples[0].Payload = m.Tuples[0].Payload[:len(want.Tuples[0].Payload)]
	if !messageEqual(want, m) {
		t.Fatal("owned message changed with the input or with an append")
	}
}

// BenchmarkUnmarshalMessage compares the owning decoder with the
// decode-into form a connection runs on every frame, on the one-tuple
// frame of the fan-out workloads and on a 500-tuple merged answer.
func BenchmarkUnmarshalMessage(b *testing.B) {
	small := benchMsg()
	small.Tuples, small.Removed = small.Tuples[:1], nil
	for _, bc := range []struct {
		name string
		msg  multicast.Message
	}{{"1tuple", small}, {"500tuples", benchMsg()}} {
		data := MarshalMessage(bc.msg)
		b.Run(bc.name+"/owning", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := UnmarshalMessage(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bc.name+"/into", func(b *testing.B) {
			var m multicast.Message
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := UnmarshalMessageInto(&m, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
