package fleetrpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"gesp/internal/resilience"
	"gesp/internal/serve"
)

// solveBody is the canonical encoded /v1/solve request.
func solveBody(t *testing.T, h serve.Handle, b []float64) []byte {
	t.Helper()
	body, err := json.Marshal(SolveRequest{Handle: h.String(), B: b})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestWireSolveForwardsBytes: a coordinator over HTTP shards answers
// /v1/solve with exactly the bytes the owning shard answers itself,
// whatever the key order of the request, and the x in them is bitwise
// the in-process LocalShard.Solve's.
func TestWireSolveForwardsBytes(t *testing.T) {
	shards, svcs := testShards(t, "http", 2, serve.DefaultConfig())
	f := newTestFleet(t, quietConfig(shards))
	coord := Handler(f, nil)
	sys := testbedSystem(t, "SHERMAN4", 0)
	h, err := f.Submit(bg, WireMatrix(sys.a))
	if err != nil {
		t.Fatal(err)
	}
	owner := f.Owner(h.Key.Pattern)

	body := solveBody(t, h, sys.b)
	direct, err := DoBytes(bg, NewHTTPClient(), http.MethodPost, "http://"+shards[owner].Addr()+"/v1/solve", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	bRev, err := json.Marshal(sys.b)
	if err != nil {
		t.Fatal(err)
	}
	reordered := []byte(`{"b":` + string(bRev) + `,"handle":"` + h.String() + `"}`)
	for name, req := range map[string][]byte{"canonical": body, "b first": reordered} {
		w, eres := post(coord, "/v1/solve", "", bytes.NewReader(req))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d %s", name, w.Code, eres.Error)
		}
		if !bytes.Equal(w.Body.Bytes(), direct) {
			t.Fatalf("%s: coordinator answered %d bytes, the shard %d: not forwarded as is", name, w.Body.Len(), len(direct))
		}
	}

	var res SolveResponse
	if err := json.Unmarshal(direct, &res); err != nil {
		t.Fatal(err)
	}
	want, err := NewLocalShard("", svcs[owner]).Solve(bg, h, sys.b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.X) != len(want) {
		t.Fatalf("x has %d elements, want %d", len(res.X), len(want))
	}
	for i := range want {
		if math.Float64bits(res.X[i]) != math.Float64bits(want[i]) {
			t.Fatalf("x[%d] = %v over the wire, %v in process", i, res.X[i], want[i])
		}
	}
}

// TestWireRejectsMisshapenAnswers: a shard whose answer is not a
// SolveResponse of the handle's length is a broken peer — the same
// retryable ErrUnreachable the decoded length guard gave — on the
// wire leg, on the decoded leg, and through a coordinator's front door.
func TestWireRejectsMisshapenAnswers(t *testing.T) {
	h := serve.Handle{Key: serve.FactorKey{Pattern: 1, Values: 2}, N: 3}
	body := solveBody(t, h, []float64{1, 2, 3})
	for name, answer := range map[string]string{
		"short x":    `{"x":[1,2]}`,
		"long x":     `{"x":[1,2,3,4]}`,
		"no x":       `{"y":[1,2,3]}`,
		"cut short":  `{"x":[1,2,3`,
		"null x":     `{"x":null}`,
		"empty x":    `{"x":[]}`,
		"nested":     `{"x":[[1],[2],[3]]}`,
		"not json":   `1,2,3`,
		"empty body": ``,
	} {
		t.Run(name, func(t *testing.T) {
			cli := NewClient(serveHTTP(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				//gesp:errok — the test shard's answer is the test input
				_, _ = w.Write([]byte(answer))
			})))
			_, werr := cli.SolveWire(bg, h, body)
			_, derr := cli.Solve(bg, h, []float64{1, 2, 3})
			for _, err := range []error{werr, derr} {
				if !errors.Is(err, ErrUnreachable) || !Retryable(err) {
					t.Fatalf("answer %q: %v, want retryable ErrUnreachable", answer, err)
				}
			}
			f := newTestFleet(t, quietConfig([]Shard{cli}))
			if w, eres := post(Handler(f, nil), "/v1/solve", "", bytes.NewReader(body)); w.Code != http.StatusServiceUnavailable {
				t.Fatalf("coordinator over a shard answering %q: status %d %s", answer, w.Code, eres.Error)
			}
		})
	}
}

// TestWireSolveStatuses: a malformed body, a wrong-length b and an
// unknown handle get the same status straight from a shard as through
// a coordinator over either kind of shard.
func TestWireSolveStatuses(t *testing.T) {
	sys := testbedSystem(t, "SHERMAN4", 0)
	handlers := map[string]http.Handler{}
	var h serve.Handle
	for _, kind := range shardKinds {
		shards, svcs := testShards(t, kind, 2, serve.DefaultConfig())
		f := newTestFleet(t, quietConfig(shards))
		var err error
		if h, err = f.Submit(bg, WireMatrix(sys.a)); err != nil {
			t.Fatal(err)
		}
		handlers["coordinator over "+kind] = Handler(f, nil)
		handlers["shard "+kind] = NewLocalShard("", svcs[f.Owner(h.Key.Pattern)]).Mux()
	}
	unknown := serve.Handle{Key: serve.FactorKey{Pattern: 1, Values: 2}, N: len(sys.b)}
	good := string(solveBody(t, h, sys.b))
	for _, c := range []struct {
		name   string
		body   string
		status int
	}{
		{"not json", `not json`, http.StatusBadRequest},
		{"cut short", good[:len(good)/2], http.StatusBadRequest},
		{"b not numbers", `{"handle":"` + h.String() + `","b":[true]}`, http.StatusBadRequest},
		{"malformed handle", `{"handle":"nope","b":[1]}`, http.StatusBadRequest},
		{"wrong-length b", string(solveBody(t, h, sys.b[1:])), http.StatusBadRequest},
		{"unknown handle", string(solveBody(t, unknown, sys.b)), http.StatusGone},
		{"good", good, http.StatusOK},
	} {
		for name, hd := range handlers {
			if w, eres := post(hd, "/v1/solve", "", strings.NewReader(c.body)); w.Code != c.status {
				t.Errorf("%s, %s: status %d (%s), want %d", c.name, name, w.Code, eres.Error, c.status)
			}
		}
	}
}

// TestShardRefusesMisroutedBody: the shard decodes the whole body, and
// a handle that disagrees with the route is a bad request, not a solve
// against the wrong factors.
func TestShardRefusesMisroutedBody(t *testing.T) {
	shards, _ := testShards(t, "local", 1, serve.DefaultConfig())
	sys := testbedSystem(t, "SHERMAN4", 0)
	h := mustSubmit(t, shards[0], sys)
	other := h
	other.Key.Values++
	_, err := shards[0].SolveWire(bg, h, solveBody(t, other, sys.b))
	if got := classify(err); got != (errClass{failed: true}) {
		t.Fatalf("misrouted body: %v classified %+v, want a terminal error", err, got)
	}
	w := httptest.NewRecorder()
	WriteErr(w, err)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("misrouted body: status %d, want 400", w.Code)
	}
}

// FuzzWireHandle: the handle extraction never panics, and on every body
// encoding/json accepts as a SolveRequest it names the handle
// encoding/json decodes — duplicate keys, escapes, key case and
// trailing values included.
func FuzzWireHandle(f *testing.F) {
	for _, seed := range []string{
		`{"handle":"p0000000000000001.v0000000000000002.n3","b":[1,2,3]}`,
		`{"b":[1,2,3],"handle":"p1.v2.n3"}`,
		`{"handle":"a","handle":"b","b":[]}`,
		`{"handle":"a","b":[],"handle":"c"}`,
		`{"handle":"a","b":[],"HANDLE":"c"}`,
		`{"handle":"a","b":[],"\u0068andle":"c"}`,
		`{"handle":"p1","b":[]}`,
		`{"handle":"a\"b","b":[]}`,
		"{\"handle\":\"\xff\",\"b\":[]}",
		`{"handle":"a","b":[]} {"handle":"z"}`,
		`{"handle":"a","b":null}`,
		`{"handle":null,"b":[1]}`,
		`{"handle":"a","b":"x"}`,
		` {"handle":"a","b":[]}`,
		`{"handle":"a"`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := wireHandle(body)
		var req SolveRequest
		if decodeBody(body, &req) != nil {
			return
		}
		if err != nil || got != req.Handle {
			t.Fatalf("body %q: wireHandle %q, %v; encoding/json %q", body, got, err, req.Handle)
		}
	})
}

// FuzzMatrixFrame: no input makes the frame decoders panic; each gives
// a typed error (ErrBadMatrix, or ErrNonFiniteRHS for a degraded b) or
// a value, and an accepted frame round-trips byte for byte through the
// JSON triplet form and encodeMatrix — and assembles. The same bytes
// go through the /v1/degraded decoder, which must round-trip too.
func FuzzMatrixFrame(f *testing.F) {
	good := smallFrame()
	m, err := DecodeMatrix(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(encodeDegraded(m, []float64{1, 2}))
	f.Add(encodeDegraded(m, []float64{1, math.Inf(-1)}))
	for _, rule := range slices.Sorted(maps.Keys(badFrames())) {
		f.Add(badFrames()[rule])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if m, err := DecodeMatrix(body); err != nil {
			if !errors.Is(err, ErrBadMatrix) {
				t.Fatalf("frame %x: untyped error %v", body, err)
			}
		} else {
			again, err := encodeMatrix(triplets(m))
			if err != nil || !bytes.Equal(again.Bytes(), body) {
				t.Fatalf("frame %x: re-encoded as %x, %v", body, again.Bytes(), err)
			}
			if _, err := m.CSC(); err != nil {
				t.Fatalf("frame %x: accepted, but assembly says %v", body, err)
			}
		}
		if m, b, err := decodeDegraded(body); err != nil {
			if !errors.Is(err, ErrBadMatrix) && !errors.Is(err, resilience.ErrNonFiniteRHS) {
				t.Fatalf("degraded body %x: untyped error %v", body, err)
			}
		} else if again := encodeDegraded(m, b); !bytes.Equal(again, body) {
			t.Fatalf("degraded body %x: re-encoded as %x", body, again)
		}
	})
}
