package fleetha

import (
	"fmt"
	"net/http"

	"gesp/internal/fleetrpc"
)

// Every node serves the same mux: the client-facing shard-protocol
// routes (fleetrpc.Handler over this node) behind the leader gate —
// answered by the leader, 307-redirected by followers — plus the HA
// control plane under /ha/v1/. The redirect carries the leader address
// both as an absolute Location (which the HA Client follows) and an
// X-Gesp-Leader hint for clients that follow by hand.

// LeaderHintHeader names the redirect hint header.
const LeaderHintHeader = "X-Gesp-Leader"

// Mux builds the node's HTTP handler.
func (n *Node) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/v1/", n.leaderGate(fleetrpc.Handler(n)))
	mux.HandleFunc("GET /ha/v1/status", func(w http.ResponseWriter, _ *http.Request) {
		fleetrpc.WriteJSON(w, http.StatusOK, n.Status())
	})
	mux.HandleFunc("GET /ha/v1/state", func(w http.ResponseWriter, _ *http.Request) {
		body, err := n.ExportState().MarshalBinary()
		if err != nil {
			fleetrpc.WriteErr(w, err)
			return
		}
		fleetrpc.WriteBytes(w, fleetrpc.FrameContentType, body)
	})
	mux.HandleFunc("POST /ha/v1/replicate", func(w http.ResponseWriter, r *http.Request) {
		body, ok := fleetrpc.ReadBody(w, r)
		if !ok {
			return
		}
		var req ReplicateRequest
		if err := req.UnmarshalBinary(body); err != nil {
			fleetrpc.WriteErr(w, fmt.Errorf("bad %s body: %w", r.URL.Path, err))
			return
		}
		fleetrpc.WriteJSON(w, http.StatusOK, n.handleReplicate(req))
	})
	return mux
}

// leaderGate passes a request through when this node leads. Otherwise
// it answers what a follower can: 307 to the leader when one is known,
// 503 (retryable) through the election.
func (n *Node) leaderGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, leaderAddr, err := n.leaderFleet()
		switch {
		case err == nil:
			next.ServeHTTP(w, r)
		case leaderAddr != "" && leaderAddr != n.cfg.Peers[n.cfg.ID]:
			w.Header().Set(LeaderHintHeader, leaderAddr)
			w.Header().Set("Location", "http://"+leaderAddr+r.URL.Path)
			w.WriteHeader(http.StatusTemporaryRedirect)
		default:
			fleetrpc.WriteErr(w, fleetrpc.StatusError(http.StatusServiceUnavailable, "fleetha: no leader elected yet; retry", 0))
		}
	})
}
