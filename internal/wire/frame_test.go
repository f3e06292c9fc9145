package wire

import (
	"bytes"
	"io"
	"testing"

	"qsub/internal/multicast"
)

// TestAppendMessageFrameMatchesWriteFrame pins the encode-once contract:
// the frame bytes AppendMessageFrame produces are exactly what
// WriteFrame(w, TypeAnswer, MarshalMessage(m)) would have put on the
// wire, so the shared frame is byte-identical to a per-message encode by
// construction.
func TestAppendMessageFrameMatchesWriteFrame(t *testing.T) {
	m := benchMsg()
	var legacy bytes.Buffer
	if err := WriteFrame(&legacy, TypeAnswer, MarshalMessage(m)); err != nil {
		t.Fatal(err)
	}
	framed := AppendMessageFrame(nil, m)
	if !bytes.Equal(legacy.Bytes(), framed) {
		t.Fatalf("AppendMessageFrame differs from WriteFrame+MarshalMessage: %d vs %d bytes",
			len(framed), legacy.Len())
	}
	// A fresh frame is sized before it is written: one allocation, no
	// spare capacity, whatever optional parts the message has.
	for name, mutate := range map[string]func(*multicast.Message){
		"as is":     func(*multicast.Message) {},
		"stamped":   func(m *multicast.Message) { m.PublishedUnixNano = 1_700_000_000_000_000_000 },
		"removals":  func(m *multicast.Message) { m.Removed = []uint64{1, 2, 3} },
		"no tuples": func(m *multicast.Message) { m.Tuples = nil },
		"empty":     func(m *multicast.Message) { *m = multicast.Message{} },
	} {
		v := benchMsg()
		mutate(&v)
		if frame := AppendMessageFrame(nil, v); len(frame) != HeaderSize+messageSize(v) || len(frame) != HeaderSize+len(MarshalMessage(v)) {
			t.Errorf("%s: frame of %d bytes, sized as %d, payload %d", name, len(frame), HeaderSize+messageSize(v), len(MarshalMessage(v)))
		}
		if allocs := testing.AllocsPerRun(20, func() { AppendMessageFrame(nil, v) }); allocs != 1 && !raceEnabled {
			t.Errorf("%s: a fresh frame took %v allocations, want 1", name, allocs)
		}
	}
	// Appending after a prefix preserves both.
	prefix := []byte{1, 2, 3}
	out := AppendMessageFrame(append([]byte(nil), prefix...), m)
	if !bytes.Equal(out[:3], prefix) || !bytes.Equal(out[3:], framed) {
		t.Fatal("AppendMessageFrame after prefix clobbered bytes")
	}
}

// TestAppendMessageFrameZeroAlloc pins the buffer-reuse contract: once
// the buffer has grown to frame size, steady-state framing into it
// allocates nothing.
func TestAppendMessageFrameZeroAlloc(t *testing.T) {
	m := benchMsg()
	buf := AppendMessageFrame(nil, m)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendMessageFrame(buf[:0], m)
	})
	if allocs != 0 {
		t.Fatalf("AppendMessageFrame with warm buffer: %v allocs/op, want 0", allocs)
	}
}

func TestReadFrameAppendMatchesReadFrame(t *testing.T) {
	m := benchMsg()
	frame := AppendMessageFrame(nil, m)

	ft, payload, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	ft2, payload2, err := ReadFrameAppend(nil, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if ft != ft2 || !bytes.Equal(payload, payload2) {
		t.Fatal("ReadFrameAppend decoded different bytes than ReadFrame")
	}

	// Reuse: a warm buffer is reused when capacity allows...
	big := make([]byte, 0, len(frame))
	_, payload3, err := ReadFrameAppend(big, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if &payload3[0] != &big[:1][0] {
		t.Fatal("ReadFrameAppend did not reuse the provided buffer")
	}
	// ...and grown when it does not.
	_, payload4, err := ReadFrameAppend(make([]byte, 0, 2), bytes.NewReader(frame))
	if err != nil || !bytes.Equal(payload4, payload) {
		t.Fatalf("ReadFrameAppend with tiny buffer: err=%v", err)
	}

	// Oversized and truncated frames fail like ReadFrame.
	hdr := []byte{0xff, 0xff, 0xff, 0xff, TypeAnswer}
	if _, _, err := ReadFrameAppend(nil, bytes.NewReader(hdr)); err != ErrFrameTooLarge {
		t.Fatalf("oversized frame: err=%v, want ErrFrameTooLarge", err)
	}
	if _, _, err := ReadFrameAppend(nil, bytes.NewReader(frame[:len(frame)-3])); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: err=%v, want ErrUnexpectedEOF", err)
	}
}

// TestReadFrameAppendZeroAlloc pins the read-side reuse contract the
// client read loops rely on: with a warm buffer, reading a frame
// allocates nothing.
func TestReadFrameAppendZeroAlloc(t *testing.T) {
	m := benchMsg()
	frame := AppendMessageFrame(nil, m)
	r := bytes.NewReader(frame)
	var buf []byte
	// Warm the buffer to frame size.
	_, buf, _ = ReadFrameAppend(buf, r)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		_, payload, err := ReadFrameAppend(buf[:0], r)
		if err != nil {
			t.Fatal(err)
		}
		buf = payload
	})
	if allocs != 0 {
		t.Fatalf("ReadFrameAppend with warm buffer: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkReadFrameAppend is the steady-state read loop: one reused
// buffer per connection, as the client runtimes read answer frames.
func BenchmarkReadFrameAppend(b *testing.B) {
	m := benchMsg()
	frame := AppendMessageFrame(nil, m)
	r := bytes.NewReader(frame)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		_, payload, err := ReadFrameAppend(buf[:0], r)
		if err != nil {
			b.Fatal(err)
		}
		buf = payload
	}
}
