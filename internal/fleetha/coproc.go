package fleetha

// Coordinator-process side of the chaos harness: SpawnCoordinators
// re-executes the current binary as coordinator children, each born
// configured — the harness binds every child's socket before any child
// starts, so child i's payload already names its id, every peer's
// address and the shard list, and the child builds its node at once on
// the inherited socket. RunCoordinatorIfChild claims only payloads
// tagged with its kind, so the same TestMain (or main) hooks both
// shard and coordinator children:
//
//	fleetha.RunCoordinatorIfChild()
//	fleetrpc.RunShardIfChild()

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"gesp/internal/faultsim"
	"gesp/internal/fleetrpc"
)

// ChildKindCoordinator tags a re-exec payload as an HA coordinator.
const ChildKindCoordinator = "coordinator"

// ChildConfig is a coordinator child's re-exec payload: its identity,
// the full topology and the node's tuning. SpawnCoordinators fills
// Kind, ID and Peers per child; Kind is the discriminator
// RunCoordinatorIfChild claims on, not a setting.
type ChildConfig struct {
	Kind   string   `json:"kind"`
	ID     int      `json:"id"`
	Peers  []string `json:"peers"` // all coordinator addrs, index = id
	Shards []string `json:"shards"`
	// LeaseMS/HeartbeatMS set the election timing (milliseconds on the
	// wire to keep the JSON obvious).
	LeaseMS     int64 `json:"lease_ms"`
	HeartbeatMS int64 `json:"heartbeat_ms"`
	Seed        int64 `json:"seed"`
	// Replication/HedgeAfterMS tune the leader's fleet; zero keeps the
	// fleetrpc defaults.
	Replication  int   `json:"replication,omitempty"`
	HedgeAfterMS int64 `json:"hedge_after_ms,omitempty"`
	// Controller, when non-nil, runs the SLO controller on the leader.
	Controller *ControllerConfig `json:"controller,omitempty"`
}

// RunCoordinatorIfChild is the re-exec hook for coordinator children:
// call it before fleetrpc.RunShardIfChild in TestMain or main. In the
// parent — or a child of another kind — it returns immediately.
func RunCoordinatorIfChild() {
	raw, ok := faultsim.ChildPayload()
	if !ok || fleetrpc.ChildKind(raw) != ChildKindCoordinator {
		return
	}
	if err := runCoordinator(raw); err != nil {
		fmt.Fprintf(os.Stderr, "chaos coordinator: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func runCoordinator(raw string) error {
	var cc ChildConfig
	if err := json.Unmarshal([]byte(raw), &cc); err != nil {
		return fmt.Errorf("bad coordinator config: %w", err)
	}
	ln, err := faultsim.ChildListener()
	if err != nil {
		return err
	}
	fcfg := fleetrpc.DefaultConfig(nil) // the node dials Shards at takeover
	if cc.Replication > 0 {
		fcfg.Replication = cc.Replication
	}
	if cc.HedgeAfterMS > 0 {
		fcfg.HedgeAfter = time.Duration(cc.HedgeAfterMS) * time.Millisecond
	}
	n, err := NewNode(Config{
		ID:         cc.ID,
		Peers:      cc.Peers,
		Shards:     cc.Shards,
		Lease:      time.Duration(cc.LeaseMS) * time.Millisecond,
		Heartbeat:  time.Duration(cc.HeartbeatMS) * time.Millisecond,
		Fleet:      fcfg,
		Controller: cc.Controller,
		Seed:       cc.Seed,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	faultsim.Ready()
	return http.Serve(ln, n.Mux(nil))
}

// SpawnCoordinators re-executes the current binary n times as
// coordinator children over cfg's shards and waits until each serves:
// child i gets id i, every child's address as Peers, and seed cfg.Seed
// + i (i+1 when cfg.Seed is 0).
func SpawnCoordinators(n int, cfg ChildConfig) (*faultsim.ProcSet, error) {
	return faultsim.SpawnProcs(n, func(i int, addrs []string) ([]byte, error) {
		c := cfg
		c.Kind, c.ID, c.Peers = ChildKindCoordinator, i, addrs
		if c.Seed == 0 {
			c.Seed = 1
		}
		c.Seed += int64(i)
		return json.Marshal(c)
	})
}
