package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeBackend is a controllable solveBackend: it records batch sizes,
// optionally blocks inside SolveBatch until released, optionally fails,
// and "solves" by echoing the right-hand side.
type fakeBackend struct {
	mu      sync.Mutex
	batches []int
	gate    chan struct{} // when non-nil, entered is signalled and SolveBatch blocks on gate
	entered chan struct{}
	err     error
}

func (f *fakeBackend) SolveBatchCtx(_ context.Context, bs [][]float64) ([][]float64, []error, error) {
	f.mu.Lock()
	f.batches = append(f.batches, len(bs))
	gate, entered := f.gate, f.entered
	err := f.err
	f.mu.Unlock()
	if gate != nil {
		entered <- struct{}{}
		<-gate
	}
	if err != nil {
		return nil, nil, err
	}
	xs := make([][]float64, len(bs))
	for i, b := range bs {
		xs[i] = append([]float64(nil), b...)
	}
	return xs, nil, nil
}

// release opens the gate and stops further batches from signalling, so
// the drain after a test's controlled phase can't block on entered.
func (f *fakeBackend) release() {
	f.mu.Lock()
	gate := f.gate
	f.gate = nil
	f.mu.Unlock()
	close(gate)
}

func (f *fakeBackend) sizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.batches...)
}

// TestBatcherCoalesces blocks the first (singleton) batch, queues
// exactly maxBatch requests behind it, and requires them to come out as
// one batch with every result routed to its submitter.
func TestBatcherCoalesces(t *testing.T) {
	var m Metrics
	fb := &fakeBackend{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
	bat := newBatcher(fb, 4, time.Millisecond, 64, &m)

	results := make(chan float64, 8)
	submit := func(tag float64) {
		x, err := bat.submit(context.Background(), []float64{tag})
		if err != nil {
			t.Errorf("submit %v: %v", tag, err)
			return
		}
		results <- x[0]
	}
	go submit(1)
	<-fb.entered // cutter is now blocked inside batch [1]
	var wg sync.WaitGroup
	for i := 2; i <= 5; i++ {
		wg.Add(1)
		go func(tag float64) { defer wg.Done(); submit(tag) }(float64(i))
	}
	// Wait until all four are queued, then release the gate.
	for deadline := time.Now().Add(5 * time.Second); m.queueDepth.Load() < 4; {
		if time.Now().After(deadline) {
			t.Fatal("requests never queued")
		}
		time.Sleep(50 * time.Microsecond)
	}
	fb.release()
	wg.Wait()

	got := map[float64]bool{}
	for i := 0; i < 5; i++ {
		got[<-results] = true
	}
	for i := 1; i <= 5; i++ {
		if !got[float64(i)] {
			t.Fatalf("result for request %d never delivered", i)
		}
	}
	sizes := fb.sizes()
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 4 {
		t.Fatalf("batch sizes %v, want [1 4]", sizes)
	}
	if m.batches.Load() != 2 || m.solves.Load() != 5 {
		t.Fatalf("metrics: batches=%d solves=%d, want 2/5", m.batches.Load(), m.solves.Load())
	}
}

// TestBatcherSheds fills the queue behind a blocked solver and requires
// the overflow request to be rejected immediately with ErrOverloaded.
func TestBatcherSheds(t *testing.T) {
	const cap = 3
	var m Metrics
	fb := &fakeBackend{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	bat := newBatcher(fb, 1, 0, cap, &m)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); bat.submit(context.Background(), []float64{0}) }()
	<-fb.entered // solver blocked on batch [0]

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

	// Queue is at capacity: the next request must shed, not block.
	start := time.Now()
	_, err := bat.submit(context.Background(), []float64{99})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shedding took %v; must not block", d)
	}
	if m.shed.Load() != 1 {
		t.Fatalf("shed counter = %d, want 1", m.shed.Load())
	}

	fb.release()
	wg.Wait()
	if m.queueDepth.Load() != 0 {
		t.Fatalf("queue depth %d after drain", m.queueDepth.Load())
	}
}

// TestBatcherPropagatesError delivers a backend failure to every member
// of the batch.
func TestBatcherPropagatesError(t *testing.T) {
	var m Metrics
	boom := errors.New("boom")
	fb := &fakeBackend{err: boom}
	bat := newBatcher(fb, 4, time.Millisecond, 64, &m)

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := bat.submit(context.Background(), []float64{1})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	n := 0
	for err := range errs {
		n++
		if !errors.Is(err, boom) {
			t.Fatalf("got %v, want backend error", err)
		}
	}
	if n != 3 {
		t.Fatalf("delivered %d errors, want 3", n)
	}
}

// TestBatcherLoneCut: the delay window holds a batch only when there
// is company to wait for. Under an hour-long maxDelay, a lone submit on
// an idle batcher returns at once, and requests that queue behind a
// blocked batch still leave together.
func TestBatcherLoneCut(t *testing.T) {
	var m Metrics
	fb := &fakeBackend{}
	bat := newBatcher(fb, 3, time.Hour, 64, &m)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if x, err := bat.submit(ctx, []float64{7}); err != nil || x[0] != 7 {
		t.Fatalf("lone submit on an idle batcher: %v, %v — it waited on the delay window", x, err)
	}

	fb.mu.Lock()
	fb.gate, fb.entered = make(chan struct{}), make(chan struct{}, 8)
	fb.mu.Unlock()
	var wg sync.WaitGroup
	submit := func(tag float64) {
		defer wg.Done()
		if _, err := bat.submit(ctx, []float64{tag}); err != nil {
			t.Errorf("submit %v: %v", tag, err)
		}
	}
	wg.Add(1)
	go submit(1)
	select {
	case <-fb.entered: // cutter blocked inside batch [1]
	case <-ctx.Done():
		t.Fatal("a lone submit was never cut")
	}
	for i := 2; i <= 4; i++ {
		wg.Add(1)
		go submit(float64(i))
	}
	for m.queueDepth.Load() < 3 {
		if ctx.Err() != nil {
			t.Fatal("requests never queued")
		}
		time.Sleep(50 * time.Microsecond)
	}
	fb.release()
	wg.Wait()
	if sizes := fb.sizes(); len(sizes) != 3 || sizes[1] != 1 || sizes[2] != 3 {
		t.Fatalf("batch sizes %v, want [1 1 3]", sizes)
	}
}

// TestBatcherZeroDelay checks that MaxDelay=0 cuts singleton batches
// immediately — the batching-off configuration.
func TestBatcherZeroDelay(t *testing.T) {
	var m Metrics
	fb := &fakeBackend{}
	bat := newBatcher(fb, 8, 0, 64, &m)
	for i := 0; i < 4; i++ {
		if _, err := bat.submit(context.Background(), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range fb.sizes() {
		if s != 1 {
			t.Fatalf("zero-delay batch of size %d, want 1", s)
		}
	}
}
