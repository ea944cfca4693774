package fleetrpc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gesp/internal/fleet"
	"gesp/internal/serve"
	"gesp/internal/sparse"
)

// post sends body to the handler in-process and decodes an error
// response's body.
func post(h http.Handler, path, tenant string, body io.Reader) (*httptest.ResponseRecorder, ErrorResponse) {
	r := httptest.NewRequest("POST", path, body)
	if tenant != "" {
		r.Header.Set("X-Tenant", tenant)
	}
	return record(h, r)
}

// postFrame is post of a binary frame.
func postFrame(h http.Handler, path string, body []byte) (*httptest.ResponseRecorder, ErrorResponse) {
	r := httptest.NewRequest("POST", path, bytes.NewReader(body))
	r.Header.Set("Content-Type", FrameContentType)
	return record(h, r)
}

func record(h http.Handler, r *http.Request) (*httptest.ResponseRecorder, ErrorResponse) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var eres ErrorResponse
	if w.Code != http.StatusOK {
		//gesp:errok — a body that is not an ErrorResponse leaves eres empty, which the callers assert on
		_ = json.Unmarshal(w.Body.Bytes(), &eres)
	}
	return w, eres
}

// triplets is m in the JSON triplet form the front door reads.
func triplets(m Matrix) MatrixRequest {
	req := MatrixRequest{N: m.N()}
	for k := 0; k < m.Nnz(); k++ {
		i, j, v := m.entry(k)
		req.Rows = append(req.Rows, i)
		req.Cols = append(req.Cols, j)
		req.Vals = append(req.Vals, v)
	}
	return req
}

func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf)
}

// TestWriteErrRetryAfter: Retry-After speaks whole seconds, so
// sub-second hints must round UP to 1 — a zero would tell throttled
// clients to retry immediately, defeating the header's purpose — while
// the body carries the hint exactly, which is what lets a Client hand
// the router the same hint a LocalShard would.
func TestWriteErrRetryAfter(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{50 * time.Millisecond, "1"},
		{999 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{4 * time.Second, "4"},
	}
	for _, c := range cases {
		for _, e := range []struct {
			err    error
			status int
		}{
			{&serve.OverloadedError{QueueDepth: 9, RetryAfter: c.d}, 503},
			{&fleet.QuotaError{Tenant: "t", RetryAfter: c.d}, 429},
		} {
			w := httptest.NewRecorder()
			WriteErr(w, e.err)
			var eres ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &eres); err != nil || eres.Error == "" {
				t.Fatalf("error body %q: %v", w.Body, err)
			}
			if got := w.Header().Get("Retry-After"); got != c.want || w.Code != e.status || eres.RetryAfterNS != int64(c.d) {
				t.Errorf("%v: status %d Retry-After %q body hint %v, want %d %q %v",
					e.err, w.Code, got, time.Duration(eres.RetryAfterNS), e.status, c.want, c.d)
			}
		}
	}
}

// TestHandlerQuota: the front door admits per tenant, the same way
// whatever kind of shard sits behind the router. A tenant over its
// token budget gets 429 with a whole-second Retry-After >= 1 and
// jittered exact hints (identical hints would re-form the rejected herd
// one refill later), while other tenants sail through.
func TestHandlerQuota(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind string) {
		shards, _ := testShards(t, kind, 2, serve.DefaultConfig())
		f := newTestFleet(t, quietConfig(shards))
		h := Handler(f, fleet.NewQuotas(0.001, 3)) // effectively no refill within the test

		sys := testbedSystem(t, "SHERMAN4", 0)
		w, _ := post(h, "/v1/matrix", "greedy", jsonBody(t, triplets(WireMatrix(sys.a)))) // token 1
		var res MatrixResponse
		if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil || w.Code != 200 {
			t.Fatalf("submit: %d %s", w.Code, w.Body)
		}
		if res.Shard == nil || *res.Shard != f.Owner(sys.pattern()) || res.Nnz != sys.a.Nnz() || res.N != sys.a.Rows {
			t.Fatalf("submit response %s: want the owner, n and nnz", w.Body)
		}
		solve := func(tenant string) (*httptest.ResponseRecorder, ErrorResponse) {
			return post(h, "/v1/solve", tenant, jsonBody(t, SolveRequest{Handle: res.Handle, B: sys.b}))
		}
		for i := 0; i < 2; i++ { // tokens 2, 3
			if w, _ := solve("greedy"); w.Code != 200 {
				t.Fatalf("solve %d within budget: %d %s", i, w.Code, w.Body)
			}
		}
		hints := make(map[int64]bool)
		for i := 0; i < 6; i++ {
			w, eres := solve("greedy")
			secs, err := strconv.Atoi(w.Header().Get("Retry-After"))
			if w.Code != 429 || err != nil || secs < 1 || eres.Error == "" || eres.RetryAfterNS <= 0 {
				t.Fatalf("over-budget solve %d: status %d Retry-After %q body %s", i, w.Code, w.Header().Get("Retry-After"), w.Body)
			}
			hints[eres.RetryAfterNS] = true
		}
		if len(hints) < 2 {
			t.Fatal("6 quota rejections carried the identical hint — clients would retry in lockstep")
		}
		if w, _ := solve("frugal"); w.Code != 200 {
			t.Fatalf("other tenant must be unaffected: %d %s", w.Code, w.Body)
		}
		if w, _ := solve(""); w.Code != 200 {
			t.Fatalf("headerless requests share the default bucket, which is full: %d %s", w.Code, w.Body)
		}
	})
}

// TestHandlerRejectsHostileBodies: a constant-size body must not be
// able to demand an allocation of its choosing, and no body may be
// larger than the one limit — against a shard's handler and a
// coordinator's alike, with a 4xx and no panic.
func TestHandlerRejectsHostileBodies(t *testing.T) {
	shards, _ := testShards(t, "local", 1, serve.DefaultConfig())
	f := newTestFleet(t, quietConfig(shards))
	handlers := map[string]http.Handler{
		"shard":       shards[0].(*LocalShard).Mux(),
		"coordinator": Handler(f, nil),
	}
	huge := `{"n":1099511627776,"rows":[],"cols":[],"vals":[]}`
	for name, h := range handlers {
		if w, eres := post(h, "/v1/matrix", "", strings.NewReader(huge)); w.Code != 400 || !strings.Contains(eres.Error, "structurally singular") {
			t.Errorf("%s: %d-byte body asking for n=2^40: status %d %s", name, len(huge), w.Code, w.Body)
		}
	}

	defer func(old int64) { maxBodyBytes = old }(maxBodyBytes)
	maxBodyBytes = 1 << 10
	oversize := `{"handle":"` + strings.Repeat("x", 2<<10) + `","b":[]}`
	for name, h := range handlers {
		if w, eres := post(h, "/v1/solve", "", strings.NewReader(oversize)); w.Code != 413 || eres.Error == "" {
			t.Errorf("%s: body over the limit: status %d %s", name, w.Code, w.Body)
		}
	}
}

// TestHandlerDrain: a coordinator serves POST /v1/drain by member id;
// a shard has no such route.
func TestHandlerDrain(t *testing.T) {
	shards, _ := testShards(t, "local", 2, serve.DefaultConfig())
	f := newTestFleet(t, quietConfig(shards))
	w, _ := post(Handler(f, nil), "/v1/drain", "", jsonBody(t, DrainRequest{Shard: 1}))
	var res DrainResponse
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil || w.Code != 200 || res.Drained != 1 {
		t.Fatalf("drain: %d %s", w.Code, w.Body)
	}
	if st := f.Stats(); st.Drains != 1 || st.Members[1].State != "dead" {
		t.Fatalf("drain did not reach the router: %+v", st.Members)
	}
	if w, _ := post(shards[0].(*LocalShard).Mux(), "/v1/drain", "", jsonBody(t, DrainRequest{})); w.Code != 404 {
		t.Fatalf("a shard must not serve /v1/drain: %d", w.Code)
	}
}

// TestHandlerCodecEquivalence: one matrix posted to one Handler as
// JSON and as a frame gets the same handle — the same PatternHash and
// ValueHash — and the same nnz, on a coordinator over either kind of
// shard and on a shard itself, which must keep answering JSON. The
// JSON triplets run in reverse order: the codecs agree on the
// assembled matrix, not on the byte order of its entries.
func TestHandlerCodecEquivalence(t *testing.T) {
	sys := testbedSystem(t, "SHERMAN4", 0)
	m := WireMatrix(sys.a)
	rev := triplets(m)
	slices.Reverse(rev.Rows)
	slices.Reverse(rev.Cols)
	slices.Reverse(rev.Vals)
	want := serve.FactorKey{Pattern: sparse.PatternHash(sys.a), Values: sparse.ValueHash(sys.a)}

	handlers := map[string]http.Handler{}
	for _, kind := range shardKinds {
		shards, svcs := testShards(t, kind, 2, serve.DefaultConfig())
		handlers["coordinator over "+kind] = Handler(newTestFleet(t, quietConfig(shards)), nil)
		handlers["shard "+kind] = NewLocalShard("", svcs[0]).Mux()
	}
	for name, h := range handlers {
		var got []MatrixResponse
		for _, w := range []*httptest.ResponseRecorder{
			first(post(h, "/v1/matrix", "", jsonBody(t, rev))),
			first(postFrame(h, "/v1/matrix", m.Bytes())),
		} {
			var res MatrixResponse
			if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil || w.Code != http.StatusOK {
				t.Fatalf("%s: submit: %d %s", name, w.Code, w.Body)
			}
			got = append(got, res)
		}
		hj, err := serve.ParseHandle(got[0].Handle)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Handle != got[1].Handle || hj.Key != want || got[0].Nnz != got[1].Nnz || got[0].Nnz != sys.a.Nnz() {
			t.Errorf("%s: JSON %+v, frame %+v; want key %+v and nnz %d", name, got[0], got[1], want, sys.a.Nnz())
		}
	}
}

func first(w *httptest.ResponseRecorder, _ ErrorResponse) *httptest.ResponseRecorder { return w }

// smallFrame is the frame of a 2x2 matrix with three entries.
func smallFrame() []byte {
	t := sparse.NewTriplet(2, 2)
	t.Append(0, 0, 4)
	t.Append(1, 0, -1)
	t.Append(1, 1, 3)
	return WireMatrix(t.ToCSC()).Bytes()
}

// patched is a copy of frame with the little-endian word at off set
// to v, size bytes wide.
func patched(frame []byte, off, size int, v uint64) []byte {
	b := bytes.Clone(frame)
	if size == 4 {
		binary.LittleEndian.PutUint32(b[off:], uint32(v))
	} else {
		binary.LittleEndian.PutUint64(b[off:], v)
	}
	return b
}

// badFrames are frames every decoder must refuse, named by the rule
// they break. The small frame has nnz = 3: rows at 20, cols at 32,
// values at 44.
func badFrames() map[string][]byte {
	good := smallFrame()
	return map[string][]byte{
		"empty":            nil,
		"not a frame":      []byte(`{"n":2,"rows":[0],"cols":[0],"vals":[1]}`),
		"header only":      good[:matrixHead],
		"truncated":        good[:len(good)-1],
		"over-long":        append(bytes.Clone(good), 0),
		"nnz over length":  patched(good, 12, 8, 4),
		"nnz under length": patched(good, 12, 8, 2),
		"nnz huge":         patched(good, 12, 8, math.MaxUint64),
		"n zero":           patched(good, 4, 8, 0),
		"n over nnz":       patched(good, 4, 8, 4),
		"n over MaxInt32":  patched(good, 4, 8, math.MaxInt32+1),
		"n negative":       patched(good, 4, 8, math.MaxUint64),
		"row negative":     patched(good, 20, 4, math.MaxUint32),
		"row at n":         patched(good, 24, 4, 2),
		"col negative":     patched(good, 32, 4, 1<<31),
		"col at n":         patched(good, 40, 4, 2),
		"value NaN":        patched(good, 44, 8, math.Float64bits(math.NaN())),
		"value +Inf":       patched(good, 52, 8, math.Float64bits(math.Inf(1))),
		"value -Inf":       patched(good, 60, 8, math.Float64bits(math.Inf(-1))),
		"bad magic":        append([]byte("GMX0"), good[4:]...),
		"nnz above MaxInt": patched(good, 12, 8, 1<<63),
	}
}

// TestHandlerRejectsBadFrames: every rule of the frame layout answers
// 400 through WriteErr, on a shard and a coordinator, on /v1/matrix
// and — under a right-hand side — on /v1/degraded; a frame over the
// body limit answers 413. A non-finite b is poisoned input: 422.
func TestHandlerRejectsBadFrames(t *testing.T) {
	if _, err := DecodeMatrix(smallFrame()); err != nil {
		t.Fatalf("the good frame: %v", err)
	}
	if err := checkDims(1<<31, 1<<31); !errors.Is(err, ErrBadMatrix) {
		t.Fatalf("n = 2^31 with enough entries: %v", err)
	}
	shards, _ := testShards(t, "local", 1, serve.DefaultConfig())
	shard := shards[0].(*LocalShard).Mux()
	handlers := map[string]http.Handler{
		"shard":       shard,
		"coordinator": Handler(newTestFleet(t, quietConfig(shards)), nil),
	}
	rhs := make([]byte, 24)
	for rule, frame := range badFrames() {
		if _, err := DecodeMatrix(frame); !errors.Is(err, ErrBadMatrix) {
			t.Errorf("%s: DecodeMatrix %v, want ErrBadMatrix", rule, err)
		}
		for name, h := range handlers {
			if w, eres := postFrame(h, "/v1/matrix", frame); w.Code != http.StatusBadRequest || eres.Error == "" {
				t.Errorf("%s, %s: status %d %s", rule, name, w.Code, w.Body)
			}
		}
		if w, eres := postFrame(shard, "/v1/degraded", append(bytes.Clone(frame), rhs[:16]...)); w.Code != http.StatusBadRequest || eres.Error == "" {
			t.Errorf("%s, degraded: status %d %s", rule, w.Code, w.Body)
		}
	}
	good := smallFrame()
	for name, c := range map[string]struct {
		b      []float64
		status int
	}{
		"b NaN":  {[]float64{1, math.NaN()}, http.StatusUnprocessableEntity},
		"b +Inf": {[]float64{math.Inf(1), 1}, http.StatusUnprocessableEntity},
		"good":   {[]float64{4, 2}, http.StatusOK},
	} {
		m, _ := DecodeMatrix(good)
		if w, _ := postFrame(shard, "/v1/degraded", encodeDegraded(m, c.b)); w.Code != c.status {
			t.Errorf("degraded, %s: status %d %s, want %d", name, w.Code, w.Body, c.status)
		}
	}
	for name, body := range map[string][]byte{"short b": append(bytes.Clone(good), rhs[:8]...), "long b": append(bytes.Clone(good), rhs...)} {
		if w, _ := postFrame(shard, "/v1/degraded", body); w.Code != http.StatusBadRequest {
			t.Errorf("degraded, %s: status %d %s", name, w.Code, w.Body)
		}
	}

	defer func(old int64) { maxBodyBytes = old }(maxBodyBytes)
	maxBodyBytes = 1 << 10
	big := WireMatrix(testbedSystem(t, "SHERMAN4", 0).a).Bytes()
	for name, h := range handlers {
		if w, eres := postFrame(h, "/v1/matrix", big); w.Code != http.StatusRequestEntityTooLarge || eres.Error == "" {
			t.Errorf("%s: frame over the limit: status %d %s", name, w.Code, w.Body)
		}
	}
}

// TestInternalHopsSendFrames: every body a coordinator sends a shard
// with a matrix in it — the owner's submit, the replica's, the
// 410-heal's resubmit, the degraded solve — is a frame, never JSON.
func TestInternalHopsSendFrames(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	cfg := serve.DefaultConfig()
	cfg.MaxFactors = 1
	shards := make([]Shard, 2)
	for i := range shards {
		svc := serve.New(cfg)
		t.Cleanup(svc.Close)
		mux := NewLocalShard("", svc).Mux()
		shards[i] = NewClient(serveHTTP(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/matrix" || r.URL.Path == "/v1/degraded" {
				mu.Lock()
				seen[r.URL.Path+" "+r.Header.Get("Content-Type")]++
				mu.Unlock()
			}
			mux.ServeHTTP(w, r)
		})))
	}
	fcfg := quietConfig(shards)
	fcfg.Replication = 2
	f := newTestFleet(t, fcfg)
	sysA, sysB := testbedSystem(t, "SHERMAN4", 0), testbedSystem(t, "SHERMAN4", 1)
	hA, err := f.Submit(bg, WireMatrix(sysA.a))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(bg, WireMatrix(sysB.a)); err != nil { // evicts A's factors on both
		t.Fatal(err)
	}
	x, err := f.Solve(bg, hA, sysA.b) // 410, healed by a resubmit
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, x, sysA.want)
	if x, err = shards[0].SolveDegraded(bg, WireMatrix(sysA.a), sysA.b); err != nil {
		t.Fatal(err)
	}
	checkSolution(t, x, sysA.want)
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen["/v1/matrix "+FrameContentType] < 5 || seen["/v1/degraded "+FrameContentType] != 1 {
		t.Fatalf("matrix-carrying requests by path and Content-Type: %v", seen)
	}
	if st := f.Stats(); st.Resubmits == 0 {
		t.Fatalf("no heal ran: %+v", st)
	}
}
