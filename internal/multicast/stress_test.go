package multicast

import (
	"sync"
	"testing"
)

// TestPublishCancelStress races Block-policy publishers — single messages
// and runs — against Cancel and Close. Every queue holds one message and
// its consumer stops after a few batches, so publishers park on full
// queues and only Cancel or Close can release them. Each subscription is
// canceled twice while publishes are in flight (idempotence). On odd
// rounds the network also closes mid-publish; on even rounds it closes
// only after every publisher returned, which each must do without error
// once Cancel has released it. Under -race (make race-delivery) the
// queue's send gate must keep it silent: no append after close, no
// deadlock, no publisher left parked.
func TestPublishCancelStress(t *testing.T) {
	const (
		rounds      = 200
		subscribers = 8
		publishers  = 4
		messages    = 25
	)
	for round := 0; round < rounds; round++ {
		n, err := NewNetwork(2)
		if err != nil {
			t.Fatal(err)
		}
		closeEarly := round%2 == 1
		var wg, pubs sync.WaitGroup
		subs := make([]*Subscription, subscribers)
		for i := range subs {
			sub, err := n.SubscribeBatch(i%2, 1, Block)
			if err != nil {
				t.Fatal(err)
			}
			subs[i] = sub
			wg.Add(1)
			go func() { // consumer: drains a little, then stops
				defer wg.Done()
				for j := 0; j < 3; j++ {
					if _, ok := sub.NextBatch(); !ok {
						return
					}
				}
			}()
		}
		for p := 0; p < publishers; p++ {
			pubs.Add(1)
			go func() {
				defer pubs.Done()
				for j := 0; j < messages; j++ {
					var err error
					if p%2 == 0 {
						err = n.Publish(testMessage(p % 2))
					} else {
						err = n.PublishBatch([]Message{testMessage(p % 2), testMessage(p % 2), testMessage(p % 2)})
					}
					if err != nil && !closeEarly {
						t.Errorf("publish before Close: %v", err)
						return
					}
				}
			}()
		}
		for _, sub := range subs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sub.Cancel()
				sub.Cancel()
			}()
		}
		if closeEarly {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n.Close()
			}()
		}
		pubs.Wait()
		n.Close()
		wg.Wait()
		// Drain whatever was delivered before cancellation so nothing
		// leaks between rounds.
		for _, sub := range subs {
			drainAll(sub)
		}
	}
}
