package fleetrpc

import (
	"bytes"
	"context"
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
	coord := Handler(f)
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
		w, eres := post(coord, "/v1/solve", bytes.NewReader(req))
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
			if w, eres := post(Handler(f), "/v1/solve", bytes.NewReader(body)); w.Code != http.StatusServiceUnavailable {
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
		handlers["coordinator over "+kind] = Handler(f)
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
			if w, eres := post(hd, "/v1/solve", strings.NewReader(c.body)); w.Code != c.status {
				t.Errorf("%s, %s: status %d (%s), want %d", c.name, name, w.Code, eres.Error, c.status)
			}
		}
	}
}

// frameAPI is a front door's API that keeps the matrix it is handed.
type frameAPI struct{ got Matrix }

func (a *frameAPI) Submit(_ context.Context, m Matrix) (serve.Handle, error) {
	a.got = m
	return serve.Handle{N: m.N()}, nil
}

func (a *frameAPI) SolveWire(context.Context, serve.Handle, []byte) ([]byte, error) {
	return nil, errors.New("frameAPI: no solves")
}

func (a *frameAPI) Stats() struct{} { return struct{}{} }

// jsonFrame is what the JSON front door made of body before it
// scanned canonical bodies itself: one encoding/json decode, then
// encodeMatrix.
func jsonFrame(body []byte) (Matrix, error) {
	var req MatrixRequest
	if err := decodeBody(body, &req); err != nil {
		return Matrix{}, err
	}
	return encodeMatrix(req)
}

// smallRequest is a 2x2 MatrixRequest body in the canonical form, with
// its rows, cols and vals arrays spliced in.
func smallRequest(n, rows, cols, vals string) string {
	return `{"n":` + n + `,"rows":[` + rows + `],"cols":[` + cols + `],"vals":[` + vals + `]}`
}

// TestWireMatrixStatuses: every number JSON does not allow (though
// strconv does), an index outside the matrix, triplet arrays of
// different lengths and fewer entries than columns get 400 straight
// from a shard and through a coordinator over either kind of shard. A
// canonical body, and one the fast path leaves to encoding/json, get
// 200, and the front door hands on exactly the frame encodeMatrix
// makes of what encoding/json decodes.
func TestWireMatrixStatuses(t *testing.T) {
	sys := testbedSystem(t, "SHERMAN4", 0)
	handlers := map[string]http.Handler{}
	for _, kind := range shardKinds {
		shards, svcs := testShards(t, kind, 2, serve.DefaultConfig())
		handlers["coordinator over "+kind] = Handler(newTestFleet(t, quietConfig(shards)))
		handlers["shard "+kind] = NewLocalShard("", svcs[0]).Mux()
	}
	good, err := json.Marshal(triplets(WireMatrix(sys.a)))
	if err != nil {
		t.Fatal(err)
	}
	spaced := bytes.ReplaceAll(good, []byte(`,"cols"`), []byte(`, "cols"`))
	for _, c := range []struct {
		name   string
		body   string
		status int
	}{
		{"value +1", smallRequest("2", "0,1,1", "0,0,1", "4,+1,3"), http.StatusBadRequest},
		{"value inf", smallRequest("2", "0,1,1", "0,0,1", "4,inf,3"), http.StatusBadRequest},
		{"value hex", smallRequest("2", "0,1,1", "0,0,1", "4,0x1p-2,3"), http.StatusBadRequest},
		{"value underscore", smallRequest("2", "0,1,1", "0,0,1", "4,1_0,3"), http.StatusBadRequest},
		{"value .5", smallRequest("2", "0,1,1", "0,0,1", "4,.5,3"), http.StatusBadRequest},
		{"value 01", smallRequest("2", "0,1,1", "0,0,1", "4,01,3"), http.StatusBadRequest},
		{"value 1e400", smallRequest("2", "0,1,1", "0,0,1", "4,1e400,3"), http.StatusBadRequest},
		{"row 1.0", smallRequest("2", "0,1.0,1", "0,0,1", "4,-1,3"), http.StatusBadRequest},
		{"row 1e0", smallRequest("2", "0,1e0,1", "0,0,1", "4,-1,3"), http.StatusBadRequest},
		{"row +1", smallRequest("2", "0,+1,1", "0,0,1", "4,-1,3"), http.StatusBadRequest},
		{"row 01", smallRequest("2", "0,01,1", "0,0,1", "4,-1,3"), http.StatusBadRequest},
		{"row at n", smallRequest("2", "0,2,1", "0,0,1", "4,-1,3"), http.StatusBadRequest},
		{"col negative", smallRequest("2", "0,1,1", "0,-1,1", "4,-1,3"), http.StatusBadRequest},
		{"row overflows int", smallRequest("2", "0,99999999999999999999,1", "0,0,1", "4,-1,3"), http.StatusBadRequest},
		{"short cols", smallRequest("2", "0,1,1", "0,0", "4,-1,3"), http.StatusBadRequest},
		{"long vals", smallRequest("2", "0,1,1", "0,0,1", "4,-1,3,5"), http.StatusBadRequest},
		{"nnz < n", smallRequest("4", "0,1,1", "0,0,1", "4,-1,3"), http.StatusBadRequest},
		{"n zero", smallRequest("0", "0,1,1", "0,0,1", "4,-1,3"), http.StatusBadRequest},
		{"rows null", `{"n":2,"rows":null,"cols":[0,0,1],"vals":[4,-1,3]}`, http.StatusBadRequest},
		{"cut short", string(good[:len(good)/2]), http.StatusBadRequest},
		{"canonical", string(good), http.StatusOK},
		{"space inside", string(spaced), http.StatusOK},
	} {
		for name, hd := range handlers {
			if w, eres := post(hd, "/v1/matrix", strings.NewReader(c.body)); w.Code != c.status {
				t.Errorf("%s, %s: status %d (%s), want %d", c.name, name, w.Code, eres.Error, c.status)
			}
		}
		if c.status != http.StatusOK {
			continue
		}
		var api frameAPI
		if w, eres := post(Handler[struct{}](&api), "/v1/matrix", strings.NewReader(c.body)); w.Code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", c.name, w.Code, eres.Error)
		}
		want, err := jsonFrame([]byte(c.body))
		if err != nil || !bytes.Equal(api.got.Bytes(), want.Bytes()) {
			t.Errorf("%s: the front door framed %d bytes, encoding/json + encodeMatrix %d (%v)", c.name, len(api.got.Bytes()), len(want.Bytes()), err)
		}
	}
}

// TestCanonicalBodiesScan: the bodies encoding/json writes take the
// scanned path, and a canonical SolveRequest decodes in two
// allocations (the handle and b), a canonical MatrixRequest in one
// (the frame).
func TestCanonicalBodiesScan(t *testing.T) {
	sys := testbedSystem(t, "SHERMAN4", 0)
	mreq, err := json.Marshal(triplets(WireMatrix(sys.a)))
	if err != nil {
		t.Fatal(err)
	}
	h := serve.Handle{Key: serve.FactorKey{Pattern: 1, Values: 2}, N: len(sys.b)}
	sreq := solveBody(t, h, sys.b)
	if _, ok := scanMatrixRequest(mreq); !ok {
		t.Fatal("a MatrixRequest encoding/json wrote fell back to encoding/json")
	}
	if _, ok := scanSolveRequest(sreq); !ok {
		t.Fatal("a SolveRequest encoding/json wrote fell back to encoding/json")
	}
	for _, c := range []struct {
		name string
		max  float64
		fn   func() error
	}{
		{"SolveRequest", 2, func() error { _, err := DecodeSolveRequest(sreq); return err }},
		{"MatrixRequest", 1, func() error { _, err := DecodeMatrixRequest(mreq); return err }},
	} {
		var err error
		if got := testing.AllocsPerRun(20, func() { err = c.fn() }); err != nil || got > c.max {
			t.Errorf("%s: %v allocs/op (%v), want ≤ %v", c.name, got, err, c.max)
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

// matrixSeeds are MatrixRequest bodies at the edges of the canonical
// form: every number strconv reads but JSON does not, the numbers that
// test ParseFloat's range, indices that are not plain integers in
// range, key spellings, nulls, duplicates, a second value, empty
// arrays and a body cut short.
func matrixSeeds() []string {
	seeds := []string{
		smallRequest("2", "0,1,1", "0,0,1", "4,-1,3"),
		smallRequest("2", "0,1,1", "0,0,1", "4,-1,3") + " \n",
		smallRequest("2", "0,1,1", "0,0,1", "4,-1,3") + `{"n":1}`,
		smallRequest("2", "0,1,1", "0,0,1", "4,-1,3") + ` x`,
		smallRequest("2", "0,1,1", "0,0,1", "-0,-1,4.9e-324"),
		smallRequest("2", "0,1,1", "0,0,1", "1E+2,-1.5e-3,0.0"),
		smallRequest("2", "-0,1,1", "0,0,1", "4,-1,3"),
		smallRequest("2", "0,1,1", "0,0,9999999999", "4,-1,3"),
		smallRequest("2", "0,1,1", "0,0,", "4,-1,3"),
		smallRequest("2", "0,,1", "0,0,1", "4,-1,3"),
		smallRequest("2", "", "", ""),
		smallRequest("2147483648", "0,1,1", "0,0,1", "4,-1,3"),
		smallRequest("02", "0,1,1", "0,0,1", "4,-1,3"),
		smallRequest("2.0", "0,1,1", "0,0,1", "4,-1,3"),
		`{"n":2,"rows":null,"cols":[0,0,1],"vals":[4,-1,3]}`,
		`{"N":2,"rows":[0,1,1],"cols":[0,0,1],"vals":[4,-1,3]}`,
		`{"n":2,"n":3,"rows":[0,1,1],"cols":[0,0,1],"vals":[4,-1,3]}`,
		`{"n":2,"rows":[0,1,1],"cols":[0,0,1],"vals":[4,-1,3],"rows":[1,1,1]}`,
		`{"vals":[4,-1,3],"n":2,"rows":[0,1,1],"cols":[0,0,1]}`,
		`{"n":2,"rows":[0,1,1],"cols":[0,0,1],"vals":[4,-1,3`,
		`{"n":2,"rows":[0,1,1]]`,
		`{"n"`,
		`"n"`,
		``,
	}
	for _, v := range []string{"+1", "inf", "Infinity", "NaN", "0x1p-2", "1_0", ".5", "01", "-", "1.", "1e", "1e+", "-01", "1e400", "-1e400", "1e-400", "4.9e-324", "-0"} {
		seeds = append(seeds, smallRequest("2", "0,1,1", "0,0,1", "4,"+v+",3"))
	}
	for _, i := range []string{"1.0", "1e0", "1e2", "+1", "01", "-1", "2", "99999999999", "18446744073709551616"} {
		seeds = append(seeds, smallRequest("2", "0,"+i+",1", "0,0,1", "4,-1,3"))
	}
	return seeds
}

// FuzzMatrixRequest: on every body the front door's JSON decode and
// encoding/json + encodeMatrix agree on accept or refuse, on the error
// class (ErrBadMatrix or not) and byte for byte on the frame; and a
// body the scanner takes is one encoding/json takes, framed the same.
func FuzzMatrixRequest(f *testing.F) {
	for _, seed := range matrixSeeds() {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, werr := jsonFrame(body)
		got, gerr := DecodeMatrixRequest(body)
		if (gerr == nil) != (werr == nil) || errors.Is(gerr, ErrBadMatrix) != errors.Is(werr, ErrBadMatrix) || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("body %q: decoded %x, %v; encoding/json %x, %v", body, got.Bytes(), gerr, want.Bytes(), werr)
		}
		if m, ok := scanMatrixRequest(body); ok && (werr != nil || !bytes.Equal(m.Bytes(), want.Bytes())) {
			t.Fatalf("body %q: scanned %x; encoding/json %x, %v", body, m.Bytes(), want.Bytes(), werr)
		}
	})
}

// sameSolve reports whether two decoded SolveRequests are the same
// handle and bitwise the same b.
func sameSolve(a, b SolveRequest) bool {
	return a.Handle == b.Handle && (a.B == nil) == (b.B == nil) &&
		slices.EqualFunc(a.B, b.B, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// FuzzSolveRequest: on every body the shard's decode and encoding/json
// agree on accept or refuse and on the handle and b, bit for bit; and
// a body the scanner takes is one encoding/json takes, decoded the
// same.
func FuzzSolveRequest(f *testing.F) {
	for _, seed := range []string{
		`{"handle":"p0000000000000001.v0000000000000002.n3","b":[1,2,3]}`,
		`{"handle":"a","b":[1,2,3]}` + " \t\r\n",
		`{"handle":"a","b":[1,2,3]} {"handle":"z"}`,
		`{"handle":"a","b":[1,2,3]}x`,
		`{"handle":"a","b":[-0,4.9e-324,1E+2,-1.5e-3,0.0]}`,
		`{"handle":"a","b":[]}`,
		`{"handle":"a","b":[,]}`,
		`{"handle":"a","b":[1,,2]}`,
		`{"handle":"a","b":[1,2,]}`,
		`{"handle":"a","b":[[1],2]}`,
		`{"handle":"a","b":null}`,
		`{"handle":"a","b":[1,2,3]`,
		`{"handle":"a","b":[1,2`,
		`{"handle":"a","b":[1],"handle":"c"}`,
		`{"handle":"a","b":[1],"HANDLE":"c"}`,
		`{"handle":"a","b":[1],"b":[2]}`,
		`{"handle":"a","B":[1]}`,
		`{"b":[1,2,3],"handle":"a"}`,
		`{"handle":"a\u0062","b":[1]}`,
		"{\"handle\":\"\xff\",\"b\":[1]}",
		`{"handle":"a", "b":[1]}`,
		`{"handle":"a","b":[1 ,2]}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	for _, v := range []string{"+1", "inf", "Infinity", "NaN", "0x1p-2", "1_0", ".5", "01", "-", "1.", "1e", "1e+", "-01", "1e400", "-1e400", "1e-400", "-0", "true"} {
		f.Add([]byte(`{"handle":"a","b":[1,` + v + `]}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want SolveRequest
		werr := decodeBody(body, &want)
		got, gerr := DecodeSolveRequest(body)
		if (gerr == nil) != (werr == nil) || (werr == nil && !sameSolve(got, want)) {
			t.Fatalf("body %q: decoded %q %v, %v; encoding/json %q %v, %v", body, got.Handle, got.B, gerr, want.Handle, want.B, werr)
		}
		if req, ok := scanSolveRequest(body); ok && (werr != nil || !sameSolve(req, want)) {
			t.Fatalf("body %q: scanned %q %v; encoding/json %q %v, %v", body, req.Handle, req.B, want.Handle, want.B, werr)
		}
	})
}
