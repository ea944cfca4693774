package fleetrpc

// Shard-process side of the chaos harness: the child run function that
// faultsim's generic re-exec machinery is deliberately ignorant of.
// RunShardIfChild turns any binary whose main (or TestMain) calls it
// into a spawnable shard process, and SpawnShards launches a fleet of
// them from the same binary. fleetrpc imports faultsim — never the
// reverse — so every engine's test suite can keep importing faultsim's
// deterministic injectors without a cycle through the serve stack.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"gesp/internal/faultsim"
	"gesp/internal/serve"
)

// ChildKindShard tags a re-exec payload as a solve shard. An empty
// kind means shard too — the tag exists so other packages (fleetha's
// coordinator children) can share the harness: each Run*IfChild hook
// decodes the kind and claims only its own payloads.
const ChildKindShard = "shard"

// ShardConf is what the parent passes each child shard through the
// environment; the shard itself runs on the serve defaults.
type ShardConf struct {
	// Kind discriminates child flavors sharing one binary; empty and
	// ChildKindShard both mean "solve shard".
	Kind string `json:"kind,omitempty"`
}

// ChildKind decodes the kind tag from a re-exec payload ("" for
// untagged legacy payloads).
func ChildKind(raw string) string {
	var probe struct {
		Kind string `json:"kind"`
	}
	//gesp:errok — an undecodable payload has no kind; the claiming hook will fail loudly
	_ = json.Unmarshal([]byte(raw), &probe)
	return probe.Kind
}

// RunShardIfChild is the re-exec hook: call it first thing in TestMain
// (or a command's main). In the parent — or a child of another kind —
// it returns immediately; in a shard child spawned by SpawnShards it
// serves until killed and never returns.
func RunShardIfChild() {
	raw, ok := faultsim.ChildPayload()
	if !ok {
		return
	}
	if k := ChildKind(raw); k != "" && k != ChildKindShard {
		return
	}
	if err := runShard(raw); err != nil {
		fmt.Fprintf(os.Stderr, "chaos shard: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func runShard(raw string) error {
	var conf ShardConf
	if err := json.Unmarshal([]byte(raw), &conf); err != nil {
		return fmt.Errorf("bad shard conf: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	// The ready line is the parent's only synchronization point; it
	// must go out after the listener is accepting.
	faultsim.AnnounceReady(addr)
	return http.Serve(ln, WithChaosDelay(NewLocalShard(addr, serve.New(serve.DefaultConfig())).Mux()))
}

// WithChaosDelay wraps a shard mux with a runtime-settable straggler
// injector: POST /v1/chaos/delay {"ms": N} makes every subsequent
// /v1/solve sleep N milliseconds before being handled, turning the
// shard into a latency straggler without killing it. This is how the
// HA chaos tests breach a p999 SLO on demand — and cure it again with
// ms=0. Requests other than solves pass through undelayed so health
// probes keep succeeding: a straggler is slow, not dead.
func WithChaosDelay(next http.Handler) http.Handler {
	var delayMS atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/chaos/delay", func(w http.ResponseWriter, r *http.Request) {
		var req ChaosDelayRequest
		if !DecodeJSON(w, r, &req) {
			return
		}
		delayMS.Store(req.MS)
		WriteJSON(w, http.StatusOK, struct{}{})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/solve" {
			if ms := delayMS.Load(); ms > 0 {
				time.Sleep(time.Duration(ms) * time.Millisecond)
			}
		}
		next.ServeHTTP(w, r)
	})
	return mux
}

// ChaosDelayRequest sets a shard's injected solve delay.
type ChaosDelayRequest struct {
	MS int64 `json:"ms"`
}

// SetChaosDelay points a shard's straggler injector at ms milliseconds
// per solve (0 cures it).
func (c *Client) SetChaosDelay(ctx context.Context, ms int64) error {
	body, err := json.Marshal(ChaosDelayRequest{MS: ms})
	if err != nil {
		return fmt.Errorf("chaos: encode delay: %w", err)
	}
	return c.do(ctx, http.MethodPost, "/v1/chaos/delay", "application/json", body, nil)
}

// SpawnShards re-executes the current binary n times as shard
// processes (each must reach RunShardIfChild) and waits for each to
// report its listen address.
func SpawnShards(n int) (*faultsim.ProcSet, error) {
	payload, err := json.Marshal(ShardConf{Kind: ChildKindShard})
	if err != nil {
		return nil, fmt.Errorf("chaos: encode shard conf: %w", err)
	}
	return faultsim.SpawnProcs(n, string(payload))
}
