package fleetrpc

import (
	"testing"
	"time"

	"gesp/internal/serve"
)

// benchFleet is four in-process shards that cut batches immediately:
// the benchmarks measure routing latency, not batching.
func benchFleet(b *testing.B, mut func(*Config)) (*Fleet, system) {
	scfg := serve.DefaultConfig()
	scfg.MaxDelay = 0
	svcs := make([]*serve.Service, 4)
	for i := range svcs {
		svcs[i] = serve.New(scfg)
		b.Cleanup(svcs[i].Close)
	}
	cfg := quietConfig(LocalShards(svcs...))
	mut(&cfg)
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(f.Close)
	return f, testbedSystem(b, "SHERMAN4", 0)
}

func benchSolves(b *testing.B, f *Fleet, sys system) {
	h, err := f.Submit(bg, WireMatrix(sys.a))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.Solve(bg, h, sys.b); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Solve(bg, h, sys.b); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetSolveWarm is the end-to-end router overhead: a warm
// single-pattern solve through placement and the shard's cached
// factors.
func BenchmarkFleetSolveWarm(b *testing.B) {
	f, sys := benchFleet(b, func(*Config) {})
	benchSolves(b, f, sys)
}

// BenchmarkFleetSolveHedged forces the hedge path (the replica is
// raced at once) to price the race: two queued solves, a context
// cancel, first response wins.
func BenchmarkFleetSolveHedged(b *testing.B) {
	f, sys := benchFleet(b, func(c *Config) {
		c.Replication = 2
		c.HedgeAfter = time.Nanosecond
	})
	benchSolves(b, f, sys)
}
