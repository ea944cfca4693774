package fleetrpc

// Shard-process side of the chaos harness: the child run function that
// faultsim's generic re-exec machinery is deliberately ignorant of.
// RunShardIfChild turns any binary whose main (or TestMain) calls it
// into a spawnable shard process, and SpawnShards launches a fleet of
// them from the same binary. fleetrpc imports faultsim — never the
// reverse — so every engine's test suite can keep importing faultsim's
// deterministic injectors without a cycle through the serve stack.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"

	"gesp/internal/faultsim"
	"gesp/internal/serve"
)

// ChildKindShard tags a re-exec payload as a solve shard. The tag
// exists so other packages (fleetha's coordinator children) can share
// the harness: each Run*IfChild hook decodes the kind and claims only
// its own payloads.
const ChildKindShard = "shard"

// ChildKind decodes the kind tag from a re-exec payload ("" when it
// has none).
func ChildKind(raw string) string {
	var probe struct {
		Kind string `json:"kind"`
	}
	//gesp:errok — an undecodable payload has no kind; no hook claims it
	_ = json.Unmarshal([]byte(raw), &probe)
	return probe.Kind
}

// RunShardIfChild is the re-exec hook: call it first thing in TestMain
// (or a command's main). In the parent — or a child of another kind —
// it returns immediately; in a shard child spawned by SpawnShards it
// serves on its inherited listener until killed and never returns.
func RunShardIfChild() {
	raw, ok := faultsim.ChildPayload()
	if !ok || ChildKind(raw) != ChildKindShard {
		return
	}
	if err := runShard(); err != nil {
		fmt.Fprintf(os.Stderr, "chaos shard: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func runShard() error {
	ln, err := faultsim.ChildListener()
	if err != nil {
		return err
	}
	h := NewLocalShard(ln.Addr().String(), serve.New(serve.DefaultConfig())).Mux()
	faultsim.Ready()
	return http.Serve(ln, h)
}

// SpawnShards re-executes the current binary n times as shard
// processes (each must reach RunShardIfChild) and waits until each is
// serving.
func SpawnShards(n int) (*faultsim.ProcSet, error) {
	return faultsim.SpawnProcs(n, func(int, []string) ([]byte, error) {
		return []byte(`{"kind":"` + ChildKindShard + `"}`), nil
	})
}
