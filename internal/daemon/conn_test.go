package daemon

import (
	"bytes"
	"io"
	"math"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"qsub/internal/client"
	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/wire"
)

// streamConn is the client end of a connection whose server already
// wrote everything it will ever write: reads serve the stream (over and
// over when loop is set), writes vanish.
type streamConn struct {
	net.Conn // nil: only the methods below are reached
	stream   []byte
	off      int
	loop     bool
}

func (s *streamConn) Read(p []byte) (int, error) {
	if s.off == len(s.stream) {
		if !s.loop {
			return 0, io.EOF
		}
		s.off = 0
	}
	n := copy(p, s.stream[s.off:])
	s.off += n
	return n, nil
}

func (s *streamConn) Write(p []byte) (int, error) { return len(p), nil }
func (s *streamConn) Close() error                { return nil }

func connOver(t testing.TB, clientID int, stream []byte, loop bool) *Conn {
	t.Helper()
	conn, err := NewConn(&streamConn{stream: stream, loop: loop}, clientID)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// answerMsg builds a message of n tuples inside (0,0)-(10,10) addressed
// to one client's query 1, each payload size bytes of fill.
func answerMsg(clientID int, seq uint64, n, size int, fill byte) multicast.Message {
	m := multicast.Message{Channel: 1, Seq: seq, PublishedUnixNano: 1_754_650_000_000_000_000 + int64(seq),
		Header: []multicast.HeaderEntry{{ClientID: clientID, QueryIDs: []query.ID{1}}}}
	for i := 0; i < n; i++ {
		m.Tuples = append(m.Tuples, relation.Tuple{ID: seq*1000 + uint64(i), Pos: geom.Pt(5, 5),
			Payload: bytes.Repeat([]byte{fill}, size)})
	}
	return m
}

// TestConnAnswerOwnership pins the receive path's borrow rule from the
// side that could get hurt by it: the payloads an extractor keeps from a
// message addressed to the connection's client survive any number of
// later frames passing through the read buffer.
func TestConnAnswerOwnership(t *testing.T) {
	const me, other = 7, 8
	mine := answerMsg(me, 1, 3, 40, 'P')
	stream := wire.AppendMessageFrame(nil, mine)
	for seq := uint64(2); len(stream) < 8*connReadBuffer; seq++ {
		stream = wire.AppendMessageFrame(stream, answerMsg(other, seq, 4, 300, byte(seq)))
	}
	conn := connOver(t, me, stream, false)
	ext := client.New(me, query.Range(1, geom.R(0, 0, 10, 10)))
	frames := 0
	for {
		ev, err := conn.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ext.Handle(*ev.Answer)
		frames++
	}
	if st := ext.Stats(); st.MessagesSeen != frames || st.MessagesAddressed != 1 || st.GapsDetected != 0 {
		t.Fatalf("extractor stats after %d frames: %+v", frames, st)
	}
	if got := ext.Answer(1); !reflect.DeepEqual(got, mine.Tuples) {
		t.Fatalf("answer changed under later frames:\n got %v\nwant %v", got, mine.Tuples)
	}
}

// TestConnFrameLargerThanReadBuffer: a full publish does not fit the read
// buffer and takes the copying path; it decodes to the same message, in
// either order with in-place frames around it.
func TestConnFrameLargerThanReadBuffer(t *testing.T) {
	const me = 7
	msgs := []multicast.Message{
		answerMsg(me, 1, 2, 16, 'a'),
		answerMsg(me, 2, 40, 2000, 'B'), // ~80 KiB, addressed
		answerMsg(me+1, 3, 2, 16, 'c'),
		answerMsg(me+1, 4, 40, 2000, 'D'), // and borrowed
		answerMsg(me, 5, 2, 16, 'e'),
	}
	var stream []byte
	for _, m := range msgs {
		stream = wire.AppendMessageFrame(stream, m)
	}
	conn := connOver(t, me, stream, false)
	for i, want := range msgs {
		ev, err := conn.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := *ev.Answer; !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d decoded to\n%+v\nwant\n%+v", i, got, want)
		}
	}
	if _, err := conn.Next(); err != io.EOF {
		t.Fatalf("after the last frame: err = %v, want io.EOF", err)
	}
}

// TestConnTruncatedStream: a stream that ends inside a frame fails as it
// did when frames were copied out with io.ReadFull.
func TestConnTruncatedStream(t *testing.T) {
	whole := wire.AppendMessageFrame(nil, answerMsg(1, 1, 2, 16, 'a'))
	small := wire.AppendMessageFrame(nil, answerMsg(1, 2, 2, 16, 'b'))
	large := wire.AppendMessageFrame(nil, answerMsg(1, 2, 40, 2000, 'B'))
	for _, tc := range []struct {
		name string
		tail []byte
		want error
	}{
		{"at a frame boundary", nil, io.EOF},
		{"inside the header", small[:3], io.ErrUnexpectedEOF},
		{"right after the header", small[:wire.HeaderSize], io.ErrUnexpectedEOF},
		{"inside the payload", small[:len(small)/2], io.ErrUnexpectedEOF},
		{"inside a payload larger than the buffer", large[:len(large)/2], io.ErrUnexpectedEOF},
		{"oversized length", []byte{0xff, 0xff, 0xff, 0xff, wire.TypeAnswer}, wire.ErrFrameTooLarge},
	} {
		stream := append(append([]byte(nil), whole...), tc.tail...)
		conn := connOver(t, 1, stream, false)
		if _, err := conn.Next(); err != nil {
			t.Fatalf("%s: first frame: %v", tc.name, err)
		}
		if _, err := conn.Next(); err != tc.want {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		// The copying reader is the reference.
		r := bytes.NewReader(stream[len(whole):])
		if _, _, err := wire.ReadFrameAppend(nil, r); err != tc.want {
			t.Errorf("%s: ReadFrameAppend err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// chunkConn serves a stream in the given chunks, no Read crossing from
// one into the next, each Read after a pause. It records when each Read
// returned and which Read ended each chunk.
type chunkConn struct {
	net.Conn // nil: only the methods below are reached
	chunks   [][]byte
	returned []int64 // by Read
	ended    []int   // by chunk: the index of the Read that served its last byte
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	time.Sleep(2 * time.Millisecond)
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
		c.ended = append(c.ended, len(c.returned))
	}
	c.returned = append(c.returned, time.Now().UnixNano())
	return n, nil
}

func (c *chunkConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *chunkConn) Close() error                { return nil }

// TestConnReceiveStamp pins what Event.ReceivedUnixNano means: when the
// socket read that completed the frame returned. Frames one read
// delivers share it however long the caller takes between them; a frame
// whose last bytes come in a later read carries that read's stamp; and
// stamps never decrease.
func TestConnReceiveStamp(t *testing.T) {
	var frames [][]byte
	for seq := uint64(1); seq <= 6; seq++ {
		frames = append(frames, wire.AppendMessageFrame(nil, answerMsg(7+int(seq%2), seq, 3, 16, byte(seq))))
	}
	frames = append(frames, wire.AppendMessageFrame(nil, answerMsg(7, 7, 40, 2000, 'L'))) // larger than the read buffer
	cut := len(frames[2]) / 2
	// Read 1 ends inside frame 3, read 2 completes it and frames 4 to 6,
	// reads 3 and 4 carry the large frame 7 in two halves.
	read1 := slices.Concat(frames[0], frames[1], frames[2][:cut])
	read2 := slices.Concat(frames[2][cut:], frames[3], frames[4], frames[5])
	large := frames[6]
	cc := &chunkConn{chunks: [][]byte{read1, read2, large[:len(large)/2], large[len(large)/2:]}}
	conn, err := NewConn(cc, 7)
	if err != nil {
		t.Fatal(err)
	}
	var stamps []int64
	for i := range frames {
		ev, err := conn.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i+1, err)
		}
		if ev.Answer.Seq != uint64(i+1) {
			t.Fatalf("frame %d has seq %d", i+1, ev.Answer.Seq)
		}
		stamps = append(stamps, ev.ReceivedUnixNano)
		time.Sleep(time.Millisecond) // a slow listener: the stamp must not move with it
	}
	// A frame's stamp is that of the Read that ended the chunk completing
	// it: no earlier than that Read returned, and before the next one did.
	completedBy := []int{0, 0, 1, 1, 1, 1, 3} // by frame: the chunk
	for i, chunk := range completedBy {
		k := cc.ended[chunk]
		lo, hi := cc.returned[k], int64(math.MaxInt64)
		if k+1 < len(cc.returned) {
			hi = cc.returned[k+1]
		}
		if stamps[i] < lo || stamps[i] >= hi {
			t.Errorf("frame %d stamped %d, want the stamp of read %d: in [%d, %d)", i+1, stamps[i], k+1, lo, hi)
		}
		if i > 0 && completedBy[i-1] == chunk && stamps[i] != stamps[i-1] {
			t.Errorf("frames %d and %d, completed by one read, stamped %d and %d", i, i+1, stamps[i-1], stamps[i])
		}
		if i > 0 && stamps[i] < stamps[i-1] {
			t.Errorf("frame %d stamped %d, before frame %d's %d", i+1, stamps[i], i, stamps[i-1])
		}
	}
}

// TestConnOverSocket runs the ownership scenario over a real TCP
// connection, where frames arrive in segments of the kernel's choosing
// and straddle buffer refills.
func TestConnOverSocket(t *testing.T) {
	const me, other = 7, 8
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	mine := answerMsg(me, 1, 3, 40, 'P')
	const fillers = 600
	wrote := make(chan error, 1)
	read := make(chan struct{})
	defer close(read)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			wrote <- err
			return
		}
		defer func() {
			<-read // closing over the unread Hello would reset the stream
			c.Close()
		}()
		frame := wire.AppendMessageFrame(nil, mine)
		for seq := uint64(2); seq < 2+fillers && err == nil; seq++ {
			_, err = c.Write(frame)
			frame = wire.AppendMessageFrame(frame[:0], answerMsg(other, seq, 1+int(seq%5), 100+int(seq%7)*90, byte(seq)))
		}
		if err == nil {
			_, err = c.Write(frame)
		}
		wrote <- err
	}()
	conn, err := Dial(ln.Addr().String(), me)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	ext := client.New(me, query.Range(1, geom.R(0, 0, 10, 10)))
	for i := 0; i <= fillers; i++ {
		ev, err := conn.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if want := uint64(i + 1); ev.Answer.Seq != want {
			t.Fatalf("frame %d has seq %d, want %d", i, ev.Answer.Seq, want)
		}
		ext.Handle(*ev.Answer)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if got := ext.Answer(1); !reflect.DeepEqual(got, mine.Tuples) {
		t.Fatalf("answer changed under later frames:\n got %v\nwant %v", got, mine.Tuples)
	}
}

// BenchmarkConnNext is the receive layer's micro-benchmark: one Next per
// frame over an endless in-memory stream, so that what is timed is the
// parse and not the socket. Two frame shapes: the fan-out workloads' —
// one 100-byte tuple, one header entry, stamped — and merge-deliver's —
// three 16-byte tuples, two removal notices, one header entry, stamped.
// "unaddressed" is the frame a listener looks at and drops (K6 of §8),
// "addressed" the one it keeps.
func BenchmarkConnNext(b *testing.B) {
	const me = 7
	for _, bc := range []struct {
		name string
		to   int
		msg  func(to int, seq uint64) multicast.Message
	}{
		{"unaddressed", me + 1, fanoutFrame},
		{"addressed", me, fanoutFrame},
		{"merge-unaddressed", me + 1, mergeFrame},
		{"merge-addressed", me, mergeFrame},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var stream []byte
			for seq := uint64(1); seq <= 64; seq++ {
				stream = wire.AppendMessageFrame(stream, bc.msg(bc.to, seq))
			}
			conn := connOver(b, me, stream, true)
			b.ReportAllocs()
			b.SetBytes(int64(len(stream) / 64))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev, err := conn.Next()
				if err != nil || ev.Answer == nil {
					b.Fatalf("Next: %v", err)
				}
			}
		})
	}
}

// fanoutFrame is the fan-out workloads' frame: one 100-byte tuple.
func fanoutFrame(to int, seq uint64) multicast.Message {
	return answerMsg(to, seq, 1, 100, byte(seq))
}

// mergeFrame is merge-deliver's frame: three 16-byte tuples and two
// removal notices.
func mergeFrame(to int, seq uint64) multicast.Message {
	m := answerMsg(to, seq, 3, 16, byte(seq))
	m.Removed = []uint64{seq, seq + 1}
	return m
}
