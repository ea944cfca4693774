package fleetrpc

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gesp/internal/fleet"
	"gesp/internal/serve"
)

// post sends body to the handler in-process and decodes an error
// response's body.
func post(h http.Handler, path, tenant string, body io.Reader) (*httptest.ResponseRecorder, ErrorResponse) {
	r := httptest.NewRequest("POST", path, body)
	if tenant != "" {
		r.Header.Set("X-Tenant", tenant)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var eres ErrorResponse
	if w.Code != http.StatusOK {
		//gesp:errok — a body that is not an ErrorResponse leaves eres empty, which the callers assert on
		_ = json.Unmarshal(w.Body.Bytes(), &eres)
	}
	return w, eres
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
		w, _ := post(h, "/v1/matrix", "greedy", jsonBody(t, WireMatrix(sys.a))) // token 1
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
