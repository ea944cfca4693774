package fleetrpc

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gesp/internal/serve"
	"gesp/internal/sparse"
)

// errClass is everything the router reads off a Shard error.
type errClass struct {
	failed    bool
	retryable bool
	expired   bool
	hint      time.Duration
}

func classify(err error) errClass {
	return errClass{err != nil, Retryable(err), Expired(err), RetryAfterHint(err)}
}

// TestShardConformance runs LocalShard and Client↔HTTP through one
// script of failure scenarios and requires the two to classify every
// outcome identically: the router's retry ladder must not be able to
// tell which kind of shard it holds.
func TestShardConformance(t *testing.T) {
	sysA := testbedSystem(t, "SHERMAN4", 0)
	sysB := testbedSystem(t, "GEMAT11", 0)
	const queueDelay = 200 * time.Millisecond

	scenarios := []struct {
		name string
		cfg  func(*serve.Config)
		run  func(t *testing.T, sh Shard, svc *serve.Service) error
		want errClass
	}{
		{"unknown handle", nil, func(t *testing.T, sh Shard, _ *serve.Service) error {
			_, err := sh.Solve(bg, serve.Handle{Key: serve.FactorKey{Pattern: 1, Values: 2}, N: 3}, make([]float64, 3))
			return err
		}, errClass{failed: true, expired: true}},
		{"evicted handle", func(c *serve.Config) { c.MaxFactors = 1 }, func(t *testing.T, sh Shard, _ *serve.Service) error {
			h := mustSubmit(t, sh, sysA)
			mustSubmit(t, sh, sysB) // evicts A's factors
			_, err := sh.Solve(bg, h, sysA.b)
			return err
		}, errClass{failed: true, expired: true}},
		{"overloaded queue", func(c *serve.Config) { c.QueueCap, c.MaxDelay = 1, queueDelay }, func(t *testing.T, sh Shard, _ *serve.Service) error {
			// A lone request is cut at once, so the one queue slot fills
			// only behind a running batch: race solvers until one is shed.
			h := mustSubmit(t, sh, sysA)
			ctx, cancel := context.WithTimeout(bg, 10*time.Second)
			defer cancel()
			shed := make(chan error, 1)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for ctx.Err() == nil {
						_, err := sh.Solve(ctx, h, sysA.b)
						if errors.Is(err, serve.ErrOverloaded) {
							select {
							case shed <- err:
							default:
							}
							cancel()
						} else if err != nil && ctx.Err() == nil {
							t.Errorf("solve beside the full queue: %v", err)
						}
					}
				}()
			}
			wg.Wait()
			select {
			case err := <-shed:
				return err
			default:
				t.Fatal("no solve was shed within 10s")
				return nil
			}
		}, errClass{failed: true, retryable: true, hint: queueDelay}},
		{"closed shard", nil, func(t *testing.T, sh Shard, svc *serve.Service) error {
			h := mustSubmit(t, sh, sysA)
			svc.Close()
			if _, err := sh.Submit(bg, WireMatrix(sysB.a)); classify(err) != (errClass{failed: true, retryable: true}) {
				t.Fatalf("submit on a closed shard: %v", err)
			}
			_, err := sh.Solve(bg, h, sysA.b)
			return err
		}, errClass{failed: true, retryable: true}},
		{"wrong-length b", nil, func(t *testing.T, sh Shard, _ *serve.Service) error {
			h := mustSubmit(t, sh, sysA)
			_, err := sh.Solve(bg, h, sysA.b[:len(sysA.b)-1])
			return err
		}, errClass{failed: true}},
		{"handoff then solve", nil, func(t *testing.T, sh Shard, _ *serve.Service) error {
			h := mustSubmit(t, sh, sysA)
			if err := sh.Handoff(bg); err != nil {
				t.Fatalf("handoff: %v", err)
			}
			if res, err := sh.Health(bg); err != nil || res.Status != "draining" {
				t.Fatalf("health after handoff: %+v, %v", res, err)
			}
			_, err := sh.Solve(bg, h, sysA.b)
			return err
		}, errClass{failed: true, retryable: true}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for _, kind := range shardKinds {
				cfg := serve.DefaultConfig()
				if sc.cfg != nil {
					sc.cfg(&cfg)
				}
				shards, svcs := testShards(t, kind, 1, cfg)
				err := sc.run(t, shards[0], svcs[0])
				if got := classify(err); got != sc.want {
					t.Errorf("%s shard: %v classified %+v, want %+v", kind, err, got, sc.want)
				}
			}
		})
	}
}

func mustSubmit(t *testing.T, sh Shard, sys system) serve.Handle {
	t.Helper()
	h, err := sh.Submit(bg, WireMatrix(sys.a))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestClientReusesConnection: a response big enough to go out chunked
// leaves the encoder's trailing newline and the chunk terminator behind
// the decoded value. A client that closes the body without reading them
// makes net/http throw the connection away — one new TCP connection per
// request. Fifty sequential solves must ride one (allow two).
func TestClientReusesConnection(t *testing.T) {
	const n = 2048
	tri := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tri.Append(i, i, 4)
		if i > 0 {
			tri.Append(i, i-1, -1)
			tri.Append(i-1, i, -1)
		}
	}
	svc := serve.New(serve.DefaultConfig())
	defer svc.Close()
	var opened atomic.Int64
	ts := httptest.NewUnstartedServer(NewLocalShard("", svc).Mux())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	cli := NewClient(strings.TrimPrefix(ts.URL, "http://"))
	h, err := cli.Submit(bg, WireMatrix(tri.ToCSC()))
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	for i := 0; i < 50; i++ {
		if _, err := cli.Solve(bg, h, b); err != nil {
			t.Fatal(err)
		}
	}
	if got := opened.Load(); got > 2 {
		t.Fatalf("51 sequential requests opened %d TCP connections, want at most 2", got)
	}
}
