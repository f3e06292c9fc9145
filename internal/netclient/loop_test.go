package netclient

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeLink is a connection whose session lasts until it is closed.
type fakeLink struct {
	once   sync.Once
	closed chan struct{}
}

func newFakeLink() *fakeLink { return &fakeLink{closed: make(chan struct{})} }

func (l *fakeLink) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

// delays collects the backoff delays Loop logs, in order.
type delays struct {
	mu  sync.Mutex
	got []time.Duration
}

func (d *delays) logf(_ string, args ...any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.got = append(d.got, args[len(args)-1].(time.Duration))
}

// TestLoopGivesUpWrappingLastError: MaxAttempts consecutive failed
// connects end the loop with an error that wraps the last connect error.
func TestLoopGivesUpWrappingLastError(t *testing.T) {
	var errs []error
	connect := func() (*fakeLink, error) {
		errs = append(errs, fmt.Errorf("refused #%d", len(errs)+1))
		return nil, errs[len(errs)-1]
	}
	serve := func(*fakeLink) error { t.Fatal("served a failed connect"); return nil }
	err := Loop(context.Background(), Config{MinBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, MaxAttempts: 3},
		connect, serve)
	if len(errs) != 3 {
		t.Fatalf("%d connects, want 3", len(errs))
	}
	if !errors.Is(err, errs[2]) || errors.Is(err, errs[1]) {
		t.Fatalf("Loop returned %v, want it to wrap the last connect error %q", err, errs[2])
	}
}

// TestLoopBacksOffOneStepAfterSession: a session that ends after a
// successful connect backs off exactly one step, however many failures
// came before it, and the failure count starts again from there. The
// logged delays are checked against the same seeded draws.
func TestLoopBacksOffOneStepAfterSession(t *testing.T) {
	const minDelay, maxDelay, seed = time.Millisecond, time.Second, 5
	script := []bool{false, false, false, true, false, false, false} // true: the connect succeeds
	var log delays
	connects := 0
	connect := func() (*fakeLink, error) {
		ok := script[connects]
		connects++
		if !ok {
			return nil, errors.New("refused")
		}
		return newFakeLink(), nil
	}
	serve := func(*fakeLink) error { return errors.New("session ended") }
	err := Loop(context.Background(), Config{MinBackoff: minDelay, MaxBackoff: maxDelay, MaxAttempts: 4, JitterSeed: seed, Logf: log.logf},
		connect, serve)
	if err == nil || connects != len(script) {
		t.Fatalf("Loop returned %v after %d connects, want a give-up after %d", err, connects, len(script))
	}
	// Steps 1, 2, 3 for the failures, 1 for the ended session, then 2 and
	// 3 for the failures after it; the next failure is the fourth in a
	// row, counting the session's end.
	rng := rand.New(rand.NewSource(seed))
	var want []time.Duration
	for _, step := range []int{1, 2, 3, 1, 2, 3} {
		want = append(want, Backoff(minDelay, maxDelay, step, rng))
	}
	if fmt.Sprint(log.got) != fmt.Sprint(want) {
		t.Fatalf("backoff delays %v, want %v", log.got, want)
	}
}

// TestLoopCancelReturnsPromptly: a cancelled context ends the loop at
// once, whether it is waiting out a backoff or serving a live connection
// (which it closes, ending serve).
func TestLoopCancelReturnsPromptly(t *testing.T) {
	cfg := Config{MinBackoff: time.Hour, MaxBackoff: time.Hour}
	run := func(t *testing.T, connect func() (*fakeLink, error), serve func(*fakeLink) error, started <-chan struct{}) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- Loop(ctx, cfg, connect, serve) }()
		<-started
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Loop returned %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Loop did not return after the context was cancelled")
		}
	}

	t.Run("mid-backoff", func(t *testing.T) {
		failed := make(chan struct{})
		var once sync.Once
		run(t, func() (*fakeLink, error) {
			once.Do(func() { close(failed) })
			return nil, errors.New("refused")
		}, nil, failed)
	})
	t.Run("mid-session", func(t *testing.T) {
		link := newFakeLink()
		serving := make(chan struct{})
		run(t, func() (*fakeLink, error) { return link, nil }, func(l *fakeLink) error {
			close(serving)
			<-l.closed
			return errors.New("connection closed")
		}, serving)
	})
}
