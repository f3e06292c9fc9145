package loadtest

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// The split-process harness speaks a trivial lockstep line protocol on
// the child's stdin/stdout (one request, one reply, in order):
//
//	child → parent: LISTEN <addr>                      (once, at startup)
//	parent → child: AWAIT <n>    child → parent: OK
//	parent → child: BOOT         child → parent: OK
//	parent → child: CYCLE        child → parent: OK <flush-nanos>
//	parent → child: STATS        child → parent: STATS <encodes> <bytes> <deliveries> <written> <flushes> <msgs/ch>...
//	parent → child: END          child → parent: BYE   (child exits)
//
// Any child-side failure replies "ERR <message>" and ends the session.
// The CYCLE reply carries the cycle's fan-out wall time measured inside
// the child (publish start → last frame handed to the kernel), so the
// measurement is immune to parent-side scheduling delay — with
// thousands of decoding sessions in the parent, a counter polled over
// the pipe would stop the clock tens of milliseconds late.

// ServeProtocol runs the daemon half of the split-process harness: it
// builds a Server from cfg and answers protocol requests on r/w until
// END or EOF. It is the body of `qsubload -serve`.
func ServeProtocol(cfg Config, r io.Reader, w io.Writer) error {
	srv, err := NewServer(cfg)
	if err != nil {
		fmt.Fprintf(w, "ERR %s\n", protoEscape(err.Error()))
		return err
	}
	defer srv.Close()
	if _, err := fmt.Fprintf(w, "LISTEN %s\n", srv.Addr()); err != nil {
		return err
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		var err error
		switch cmd := fields[0]; cmd {
		case "AWAIT":
			var n int
			if len(fields) != 2 {
				err = fmt.Errorf("AWAIT wants one argument")
			} else if n, err = strconv.Atoi(fields[1]); err == nil {
				err = srv.Await(n)
			}
		case "BOOT":
			err = srv.Bootstrap()
		case "CYCLE":
			var dur time.Duration
			if dur, err = srv.Cycle(); err == nil {
				fmt.Fprintf(w, "OK %d\n", dur.Nanoseconds())
				continue
			}
		case "STATS":
			st, serr := srv.Stats()
			if serr != nil {
				err = serr
				break
			}
			var line strings.Builder
			fmt.Fprintf(&line, "STATS %d %d %d %d %d", st.Encodes, st.Bytes, st.Deliveries, st.FramesWritten, st.Flushes)
			for _, m := range st.ChannelMessages {
				fmt.Fprintf(&line, " %d", m)
			}
			fmt.Fprintln(w, line.String())
			continue
		case "END":
			fmt.Fprintln(w, "BYE")
			return nil
		default:
			err = fmt.Errorf("unknown command %q", cmd)
		}
		if err != nil {
			fmt.Fprintf(w, "ERR %s\n", protoEscape(err.Error()))
			return err
		}
		fmt.Fprintln(w, "OK")
	}
	return sc.Err()
}

// protoEscape keeps error text single-line for the line protocol.
func protoEscape(s string) string {
	return strings.ReplaceAll(s, "\n", " / ")
}

// ProcControl is the parent half of the split-process harness: a
// Control that forwards every call over a child's pipes.
type ProcControl struct {
	w    io.Writer
	sc   *bufio.Scanner
	addr string
	// Stop, when set, is invoked by Close after the protocol goodbye
	// (typically cmd.Wait on the child process).
	Stop func() error
}

// NewProcControl attaches to a child's stdin/stdout and reads the
// LISTEN line.
func NewProcControl(stdin io.Writer, stdout io.Reader) (*ProcControl, error) {
	p := &ProcControl{w: stdin, sc: bufio.NewScanner(stdout)}
	line, err := p.readLine()
	if err != nil {
		return nil, err
	}
	addr, ok := strings.CutPrefix(line, "LISTEN ")
	if !ok {
		return nil, fmt.Errorf("loadtest: protocol expected LISTEN, got %q", line)
	}
	p.addr = addr
	return p, nil
}

func (p *ProcControl) readLine() (string, error) {
	if !p.sc.Scan() {
		if err := p.sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}
	line := p.sc.Text()
	if msg, ok := strings.CutPrefix(line, "ERR "); ok {
		return "", fmt.Errorf("loadtest: daemon process: %s", msg)
	}
	return line, nil
}

// call sends one request and checks for the expected reply prefix,
// returning the full reply line.
func (p *ProcControl) call(req, wantPrefix string) (string, error) {
	if _, err := fmt.Fprintln(p.w, req); err != nil {
		return "", err
	}
	line, err := p.readLine()
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(line, wantPrefix) {
		return "", fmt.Errorf("loadtest: protocol expected %q reply to %q, got %q", wantPrefix, req, line)
	}
	return line, nil
}

// Addr returns the child daemon's TCP address.
func (p *ProcControl) Addr() string { return p.addr }

// Await blocks until the child daemon saw n subscriptions.
func (p *ProcControl) Await(n int) error {
	_, err := p.call(fmt.Sprintf("AWAIT %d", n), "OK")
	return err
}

// Bootstrap runs the child's planning cycle.
func (p *ProcControl) Bootstrap() error {
	_, err := p.call("BOOT", "OK")
	return err
}

// Cycle runs one measured delta cycle in the child and returns the
// child-measured fan-out wall time.
func (p *ProcControl) Cycle() (time.Duration, error) {
	line, err := p.call("CYCLE", "OK ")
	if err != nil {
		return 0, err
	}
	ns, err := strconv.ParseInt(strings.TrimPrefix(line, "OK "), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("loadtest: bad CYCLE reply %q: %w", line, err)
	}
	return time.Duration(ns), nil
}

// Stats snapshots the child daemon's fan-out counters.
func (p *ProcControl) Stats() (ServerStats, error) {
	line, err := p.call("STATS", "STATS ")
	if err != nil {
		return ServerStats{}, err
	}
	fields := strings.Fields(line)[1:]
	if len(fields) < 5 {
		return ServerStats{}, fmt.Errorf("loadtest: bad STATS line %q", line)
	}
	vals := make([]uint64, len(fields))
	for i, f := range fields {
		if vals[i], err = strconv.ParseUint(f, 10, 64); err != nil {
			return ServerStats{}, fmt.Errorf("loadtest: bad STATS line %q: %w", line, err)
		}
	}
	return ServerStats{
		Encodes:         vals[0],
		Bytes:           vals[1],
		Deliveries:      vals[2],
		FramesWritten:   vals[3],
		Flushes:         vals[4],
		ChannelMessages: vals[5:],
	}, nil
}

// Close ends the child protocol session and, when Stop is set, reaps
// the child process.
func (p *ProcControl) Close() error {
	_, err := p.call("END", "BYE")
	if p.Stop != nil {
		if serr := p.Stop(); err == nil {
			err = serr
		}
	}
	return err
}
