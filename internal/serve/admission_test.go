package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gofmm/internal/resilience"
)

// The admission gate must be bounded by construction: with 2 slots and a
// 2-deep queue, a burst of 16 claims admits at most 4 and sheds the other
// 12 immediately with a typed, hinted ErrOverloaded.
func TestAdmissionShedsBeyondBound(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 2, MaxQueue: 2, RetryAfter: 7 * time.Second})
	ctx := context.Background()

	var admitted, shed atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := a.acquire(ctx)
			if err == nil {
				admitted.Add(1)
				<-release
				a.release()
				return
			}
			if !errors.Is(err, ErrOverloaded) {
				t.Errorf("shed with wrong type: %v", err)
			}
			if hint, ok := resilience.RetryAfterHint(err); !ok || hint != 7*time.Second {
				t.Errorf("shed without the configured hint: %v %v", hint, ok)
			}
			shed.Add(1)
		}()
	}
	// Wait until the gate is saturated: two claims hold the slots, two wait
	// in the queue and the other twelve are shed. Waiting for less (say
	// admitted+shed ≥ 12) lets a goroutine that starts late take a slot
	// that close(release) frees below.
	saturated := func() bool {
		_, queued := a.depth()
		return admitted.Load() == 2 && shed.Load() == 12 && queued == 2
	}
	deadline := time.Now().Add(5 * time.Second)
	for !saturated() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := admitted.Load(); got != 4 {
		t.Fatalf("admitted %d, want exactly slots+queue = 4", got)
	}
	if got := shed.Load(); got != 12 {
		t.Fatalf("shed %d, want 12", got)
	}
}

// A queued waiter whose context fires must leave with a typed cancellation
// and give its queue position back.
func TestAdmissionQueuedCancellation(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1})
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- a.acquire(ctx) }()
	// Let the waiter join the queue, then abandon it.
	for {
		if _, queued := a.depth(); queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, resilience.ErrCancelled) {
		t.Fatalf("queued cancel: want ErrCancelled, got %v", err)
	}
	// The abandoned queue slot must be reusable.
	if _, queued := a.depth(); queued != 0 {
		t.Fatalf("queue slot leaked after cancellation")
	}
	a.release()
	if err := a.acquire(context.Background()); err != nil {
		t.Fatalf("slot not reusable after release: %v", err)
	}
	a.release()
}
