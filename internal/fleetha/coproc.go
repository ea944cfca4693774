package fleetha

// Coordinator-process side of the chaos harness: SpawnCoordinators
// re-executes the current binary as idle coordinator children, and
// ConfigureCoordinators posts each one its identity and the full
// topology once every child has announced an address — a child cannot
// know its peers' ports before those peers exist, so configuration is
// a second phase, not part of the spawn payload. After configure the
// child swaps its HTTP handler from the boot mux to the node's real
// mux atomically and runs until killed. RunCoordinatorIfChild claims
// only payloads tagged with its kind, so the same TestMain (or main)
// hooks both shard and coordinator children:
//
//	fleetha.RunCoordinatorIfChild()
//	fleetrpc.RunShardIfChild()

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
	"gesp/internal/fleetrpc"
)

// ChildKindCoordinator tags a re-exec payload as an HA coordinator.
const ChildKindCoordinator = "coordinator"

// coordPayload is the (tiny) spawn payload; everything topological
// arrives later via /ha/v1/configure.
type coordPayload struct {
	Kind string `json:"kind"`
}

// RunCoordinatorIfChild is the re-exec hook for coordinator children:
// call it before fleetrpc.RunShardIfChild in TestMain or main. In the
// parent — or a child of another kind — it returns immediately.
func RunCoordinatorIfChild() {
	raw, ok := faultsim.ChildPayload()
	if !ok {
		return
	}
	if fleetrpc.ChildKind(raw) != ChildKindCoordinator {
		return
	}
	if err := runCoordinator(); err != nil {
		fmt.Fprintf(os.Stderr, "chaos coordinator: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func runCoordinator() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// handler starts as the boot mux (configure + a not-ready status)
	// and is swapped to the node's mux once configured.
	var handler atomic.Pointer[http.Handler]
	var node atomic.Pointer[Node]
	boot := http.NewServeMux()
	boot.HandleFunc("POST /ha/v1/configure", func(w http.ResponseWriter, r *http.Request) {
		var req ConfigureRequest
		if !fleetrpc.DecodeJSON(w, r, &req) {
			return
		}
		if node.Load() != nil {
			fleetrpc.WriteErr(w, fleetrpc.StatusError(http.StatusConflict, "already configured", 0))
			return
		}
		n, err := newConfiguredNode(req)
		if err != nil {
			fleetrpc.WriteErr(w, err)
			return
		}
		node.Store(n)
		real := http.Handler(n.Mux(nil))
		handler.Store(&real)
		fleetrpc.WriteJSON(w, http.StatusOK, struct{}{})
	})
	boot.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		fleetrpc.WriteErr(w, fleetrpc.StatusError(http.StatusServiceUnavailable, "coordinator not configured yet", 0))
	})
	bootH := http.Handler(boot)
	handler.Store(&bootH)
	faultsim.AnnounceReady(ln.Addr().String())
	return http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	}))
}

// newConfiguredNode builds a node from the wire topology.
func newConfiguredNode(req ConfigureRequest) (*Node, error) {
	fcfg := fleetrpc.DefaultConfig(nil) // the node dials Shards at takeover
	if req.Replication > 0 {
		fcfg.Replication = req.Replication
	}
	if req.HedgeAfterMS > 0 {
		fcfg.HedgeAfter = time.Duration(req.HedgeAfterMS) * time.Millisecond
	}
	cfg := Config{
		ID:         req.ID,
		Peers:      req.Peers,
		Shards:     req.Shards,
		Lease:      time.Duration(req.LeaseMS) * time.Millisecond,
		Heartbeat:  time.Duration(req.HeartbeatMS) * time.Millisecond,
		Fleet:      fcfg,
		Controller: req.Controller,
		Seed:       req.Seed,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	return NewNode(cfg)
}

// SpawnCoordinators re-executes the current binary n times as idle
// coordinator children and waits for each to announce its address.
// Configure them with ConfigureCoordinators before use.
func SpawnCoordinators(n int) (*faultsim.ProcSet, error) {
	payload, err := json.Marshal(coordPayload{Kind: ChildKindCoordinator})
	if err != nil {
		return nil, fmt.Errorf("fleetha: encode coordinator payload: %w", err)
	}
	return faultsim.SpawnProcs(n, string(payload))
}

// ConfigureCoordinators posts the full topology to every spawned
// coordinator: peer i gets id i. The template's ID is overwritten per
// child; Peers is set to addrs.
func ConfigureCoordinators(addrs []string, template ConfigureRequest) error {
	hc := fleetrpc.NewHTTPClient()
	for i, addr := range addrs {
		req := template
		req.ID = i
		req.Peers = addrs
		if req.Seed == 0 {
			req.Seed = int64(i) + 1
		} else {
			req.Seed += int64(i)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := fleetrpc.DoJSON(ctx, hc, http.MethodPost, "http://"+addr+"/ha/v1/configure", req, nil)
		cancel()
		if err != nil {
			return fmt.Errorf("fleetha: configure coordinator %d at %s: %w", i, addr, err)
		}
	}
	return nil
}
