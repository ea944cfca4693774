package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestBatcherCloseDrains blocks the cutter inside a batch, queues more
// work behind it, closes the batcher, and requires (a) close to block
// until every queued request has been solved, (b) queued requests to
// get real results, not aborts, and (c) a post-close submit to be
// rejected with ErrClosed.
func TestBatcherCloseDrains(t *testing.T) {
	var m Metrics
	fb := &fakeBackend{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	bat := newBatcher(fb, 2, time.Hour, 64, &m) // huge delay: drain must not wait it out

	results := make(chan error, 8)
	submit := func(tag float64) {
		_, err := bat.submit(context.Background(), []float64{tag})
		results <- err
	}
	// A lone submit on an idle batcher is cut at once, whatever the
	// (deliberately huge) delay window.
	const inflight = 1
	go submit(1)
	<-fb.entered // cutter blocked inside batch [1]
	const queued = 5
	for i := 0; i < queued; i++ {
		go submit(float64(3 + i))
	}
	for deadline := time.Now().Add(5 * time.Second); m.queueDepth.Load() < queued; {
		if time.Now().After(deadline) {
			t.Fatal("requests never queued")
		}
		time.Sleep(50 * time.Microsecond)
	}

	closed := make(chan struct{})
	go func() {
		bat.close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("close returned while the cutter was still blocked mid-batch")
	case <-time.After(20 * time.Millisecond):
	}

	fb.release()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("close never returned after the backend was released")
	}
	// Close has returned: every request (the in-flight batch and all
	// queued ones) must have been answered, not abandoned. (The result
	// is in each request's done channel by now; the submitter goroutines
	// just need a beat to forward it.)
	for i := 0; i < queued+inflight; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("queued request aborted during close: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("close returned with %d request(s) still unresolved", queued+inflight-i)
		}
	}
	if m.queueDepth.Load() != 0 {
		t.Fatalf("queue depth %d after close", m.queueDepth.Load())
	}

	if _, err := bat.submit(context.Background(), []float64{9}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	bat.close() // idempotent
}

// TestServiceCloseDrains is the service-level shutdown test: concurrent
// solves race Close; Close must block until the cutter goroutines have
// drained, every request must end as a real solution or a clean
// ErrClosed, and nothing may be abandoned mid-queue.
func TestServiceCloseDrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatch = 4
	cfg.MaxDelay = 200 * time.Microsecond
	svc := New(cfg)
	sys := testbedSystem(t, "SHERMAN4", 0)
	h, err := svc.Submit(sys.a)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 16
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			x, err := svc.Solve(h, sys.b)
			if err == nil {
				checkSolution(t, x, sys.want)
			}
			errc <- err
		}()
	}
	close(start)
	svc.Close() // races the solves; must drain, not abort
	wg.Wait()
	close(errc)

	var solved, closed int
	for err := range errc {
		switch {
		case err == nil:
			solved++
		case errors.Is(err, ErrClosed):
			closed++
		default:
			t.Fatalf("solve during shutdown: %v", err)
		}
	}
	if solved+closed != clients {
		t.Fatalf("accounted for %d of %d requests", solved+closed, clients)
	}
	if d := svc.Stats().QueueDepth; d != 0 {
		t.Fatalf("queue depth %d after Close returned, want 0 (Close must drain)", d)
	}
	svc.Close() // idempotent
}

// TestCloseWaitsForSubmits races Close against submits that factor.
// Close must wait out every submit that passed its closed check, so no
// factor entry — and no batcher — appears after Close has closed them
// all: the cache stops changing once Close returns, and every acked
// handle answers ErrClosed promptly, at the service and at its batcher.
func TestCloseWaitsForSubmits(t *testing.T) {
	const rounds, submits = 20, 4
	systems := make([]system, rounds*submits)
	for i := range systems {
		systems[i] = testbedSystem(t, "SHERMAN4", int64(i+1))
	}
	for r := 0; r < rounds; r++ {
		svc := New(DefaultConfig())
		var mu sync.Mutex
		var acked []Handle
		var wg sync.WaitGroup
		for _, sys := range systems[r*submits : (r+1)*submits] {
			wg.Add(1)
			go func(sys system) {
				defer wg.Done()
				h, err := svc.Submit(sys.a)
				switch {
				case err == nil:
					mu.Lock()
					acked = append(acked, h)
					mu.Unlock()
				case !errors.Is(err, ErrClosed):
					t.Errorf("submit racing close: %v", err)
				}
			}(sys)
		}
		svc.Close()
		atClose := svc.Stats().FactorEntries
		wg.Wait()
		if n := svc.Stats().FactorEntries; n != atClose {
			t.Fatalf("round %d: %d factors cached when Close returned, %d after", r, atClose, n)
		}
		b := systems[r*submits].b
		for _, h := range acked {
			if _, err := svc.Solve(h, b); !errors.Is(err, ErrClosed) {
				t.Fatalf("round %d: solve on a closed service: %v, want ErrClosed", r, err)
			}
			e := svc.c.lookupFactor(h.Key)
			if e == nil {
				t.Fatalf("round %d: acked submit %v not resident", r, h)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_, err := e.bat.submit(ctx, b)
			cancel()
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("round %d: batcher of %v after Close: %v, want ErrClosed", r, h, err)
			}
		}
	}
}

// TestOverloadedErrorTyped pins the typed overload rejection: it must
// match the ErrOverloaded sentinel through errors.Is AND surface the
// queue depth and a positive retry-after hint through errors.As — the
// payload a fleet router keys its shed-vs-retry decision on.
func TestOverloadedErrorTyped(t *testing.T) {
	const cap = 3
	var m Metrics
	fb := &fakeBackend{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	bat := newBatcher(fb, 1, 0, cap, &m)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); bat.submit(context.Background(), []float64{0}) }()
	<-fb.entered
	for i := 0; i < cap; i++ {
		wg.Add(1)
		go func(tag float64) { defer wg.Done(); bat.submit(context.Background(), []float64{tag}) }(float64(i + 1))
	}
	for deadline := time.Now().Add(5 * time.Second); m.queueDepth.Load() < cap; {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(50 * time.Microsecond)
	}

	_, err := bat.submit(context.Background(), []float64{99})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("typed overload does not match sentinel: %v", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("overload rejection is not an *OverloadedError: %v", err)
	}
	if oe.QueueDepth != cap {
		t.Fatalf("QueueDepth = %d, want %d", oe.QueueDepth, cap)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want positive hint", oe.RetryAfter)
	}
	fb.release()
	wg.Wait()
}
