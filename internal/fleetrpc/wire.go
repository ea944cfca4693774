// Package fleetrpc is the solve fleet: one router (Fleet) that places
// requests by consistent-hashing each system's sparsity-pattern
// fingerprint over a set of shards, and the HTTP wire format that lets
// a shard be a separate gesp-serve process: JSON at the client-facing
// front door, a binary Matrix frame for every matrix between the
// stack's own processes.
//
// A shard is anything behind the Shard interface. Two implementations
// exist: LocalShard wraps an in-process serve.Service, and Client
// speaks the wire format (/v1/matrix, /v1/solve, /v1/stats,
// /v1/health, /v1/handoff, /v1/degraded) to a LocalShard's Mux in
// another process. Both return the same typed errors, so the router
// classifies a failure once, whatever produced it.
//
// What the router owns:
//
//   - health-checked membership: a prober walks every member on an
//     interval, failure-count thresholds drive an alive → suspect →
//     dead state machine, and a death rebuilds the ring (atomic swap)
//     and re-replicates registered patterns onto the survivors;
//   - a retry/timeout/backoff layer: jittered exponential backoff
//     under a per-request deadline budget, retry-after hints
//     respected, typed retryable-vs-terminal errors (solves are
//     idempotent, so retrying them is always safe);
//   - one hedge policy: a straggler hedge races the first replica
//     after HedgeAfter, only while the shared token bucket
//     (fleet.HedgeBudget) grants tokens, plus an immediate same-attempt
//     failover when the primary fails fast;
//   - one replication policy: every submit lands on Replication
//     members, and PromotePattern/DemotePattern widen or restore a
//     single pattern at runtime (the SLO controller's lever);
//   - graceful drain: a leaving shard closes admission and finishes
//     its queued solves (Handoff), leaves the ring, and its entries are
//     re-factored onto their post-drain placement from the matrix
//     registry;
//   - graceful degradation: when every placement is down and healing
//     fails, the solve falls back to the resilience ladder's iterative
//     path (ILU0-preconditioned GMRES on the registered matrix) on any
//     live shard instead of failing the request.
package fleetrpc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"gesp/internal/resilience"
	"gesp/internal/sparse"
)

// MatrixRequest is the JSON POST /v1/matrix body a client sends: a
// triplet (COO) matrix. Duplicate (row, col) entries are summed, the
// usual assembly rule. The front door frames it once (Matrix); no hop
// after it carries JSON.
type MatrixRequest struct {
	N    int       `json:"n"`
	Rows []int     `json:"rows"`
	Cols []int     `json:"cols"`
	Vals []float64 `json:"vals"`
}

// MatrixResponse answers a submit with the solve handle. Nnz counts
// the triplet entries received; Shard is the owning member's id, set
// only by a coordinator (it is what POST /v1/drain addresses).
type MatrixResponse struct {
	Handle string `json:"handle"`
	N      int    `json:"n"`
	Nnz    int    `json:"nnz"`
	Shard  *int   `json:"shard,omitempty"`
}

// SolveRequest is the POST /v1/solve body.
type SolveRequest struct {
	Handle string    `json:"handle"`
	B      []float64 `json:"b"`
}

// SolveResponse carries one solution vector.
type SolveResponse struct {
	X []float64 `json:"x"`
}

// HealthResponse is the GET /v1/health body: only the status, so a
// probe of a loaded shard costs it one atomic load. The shard's load
// gauges are on its /v1/stats.
type HealthResponse struct {
	Status string `json:"status"`
}

// ErrorResponse is every non-200 body. RetryAfterNS repeats the
// Retry-After header at full resolution: the header speaks whole
// seconds, a shed queue's hint is a fraction of a millisecond.
type ErrorResponse struct {
	Error        string `json:"error"`
	RetryAfterNS int64  `json:"retry_after_ns,omitempty"`
}

// DrainRequest is the POST /v1/drain body a coordinator accepts.
type DrainRequest struct {
	Shard int `json:"shard"`
}

// DrainResponse answers a completed drain.
type DrainResponse struct {
	Drained int `json:"drained"`
}

// A coordinator forwards /v1/solve as bytes: it routes on the handle
// alone and leaves the numbers to the shard, which decodes and
// validates every byte before anything reaches a kernel. These are the
// byte-level reads that make that possible without parsing a float.

var (
	// solveHead and solveMid frame the handle in the order
	// encoding/json writes a SolveRequest.
	solveHead = []byte(`{"handle":"`)
	solveMid  = []byte(`","b":`)
	// solutionHead and solutionTail frame x in an encoded SolveResponse.
	solutionHead = []byte(`{"x":[`)
	solutionTail = []byte(`]}`)
)

// wireHandle returns the handle string of an encoded SolveRequest. On
// the canonical head (cutSolveHead) with no further quote in the body,
// so no other key can follow, it slices the handle out; anything else
// (another key order, escapes, duplicate keys) takes one encoding/json
// decode of the handle alone. On every body encoding/json accepts as a
// SolveRequest the two agree (FuzzWireHandle).
func wireHandle(body []byte) (string, error) {
	if handle, rest, ok := cutSolveHead(body); ok && bytes.IndexByte(rest, '"') < 0 {
		return string(handle), nil
	}
	var req struct {
		Handle string `json:"handle"`
	}
	if err := decodeBody(body, &req); err != nil {
		return "", err
	}
	return req.Handle, nil
}

// cutSolveHead cuts the canonical head {"handle":"…","b": off an
// encoded SolveRequest: the one framing of a solve body, shared by the
// coordinator's routing read and the shard's decode. The handle must be
// plain ASCII, so the bytes are the string encoding/json reads.
func cutSolveHead(body []byte) (handle, rest []byte, ok bool) {
	rest, ok = bytes.CutPrefix(body, solveHead)
	if !ok {
		return nil, nil, false
	}
	end := bytes.IndexByte(rest, '"')
	if end < 0 || !plainASCII(rest[:end]) {
		return nil, nil, false
	}
	handle = rest[:end]
	rest, ok = bytes.CutPrefix(rest[end:], solveMid)
	return handle, rest, ok
}

// plainASCII reports whether s is printable ASCII without a backslash:
// bytes encoding/json reads back unchanged inside a string.
func plainASCII(s []byte) bool {
	for _, c := range s {
		if c < 0x20 || c > 0x7e || c == '\\' {
			return false
		}
	}
	return true
}

// The two JSON front-door bodies decode without reflection when they
// are in the canonical form encoding/json writes: keys in declaration
// order, no whitespace inside, only whitespace after the closing brace.
// Every number passes the JSON grammar (numberLen) before strconv reads
// it, since ParseFloat alone also takes +1, inf, 0x1p-2, 1_0, .5 and 01,
// and an index must be a plain integer inside the matrix. Any other
// body — another key order, escapes, null, duplicate or case-variant
// keys, a trailing value, a number strconv refuses, a matrix
// encodeMatrix refuses — takes the one encoding/json decode it always
// took, so the contract and its errors are unchanged and the values are
// bitwise what encoding/json gives (FuzzMatrixRequest, FuzzSolveRequest).

var (
	matrixKeyN    = []byte(`{"n":`)
	matrixKeyRows = []byte(`,"rows":[`)
	matrixKeyCols = []byte(`,"cols":[`)
	matrixKeyVals = []byte(`,"vals":[`)
)

// DecodeMatrixRequest reads a JSON /v1/matrix body and frames it: the
// front door's one conversion.
func DecodeMatrixRequest(body []byte) (Matrix, error) {
	if m, ok := scanMatrixRequest(body); ok {
		return m, nil
	}
	var req MatrixRequest
	if err := decodeBody(body, &req); err != nil {
		return Matrix{}, err
	}
	return encodeMatrix(req)
}

// scanMatrixRequest frames a canonical MatrixRequest straight from its
// bytes under every rule encodeMatrix checks. ok is false for any body
// it does not accept, well-formed or not.
func scanMatrixRequest(body []byte) (Matrix, bool) {
	rest, ok := bytes.CutPrefix(body, matrixKeyN)
	if !ok {
		return Matrix{}, false
	}
	dim, l := indexLen(rest)
	if rest, ok = bytes.CutPrefix(rest[l:], matrixKeyRows); l == 0 || !ok {
		return Matrix{}, false
	}
	nnz := elements(rest)
	if checkDims(dim, int64(nnz)) != nil {
		return Matrix{}, false
	}
	m := newMatrix(int(dim), nnz)
	rows := m.b[matrixHead : matrixHead+4*nnz]
	cols := m.b[matrixHead+4*nnz : matrixHead+8*nnz]
	vals := m.b[matrixHead+8*nnz:]
	index := func(dst []byte) func(k int, b []byte) int {
		return func(k int, b []byte) int {
			i, l := indexLen(b)
			if l == 0 || i >= dim {
				return 0
			}
			binary.LittleEndian.PutUint32(dst[4*k:], uint32(i))
			return l
		}
	}
	if rest, ok = scanArray(rest, nnz, index(rows)); !ok {
		return Matrix{}, false
	}
	if rest, ok = bytes.CutPrefix(rest, matrixKeyCols); !ok {
		return Matrix{}, false
	}
	if rest, ok = scanArray(rest, nnz, index(cols)); !ok {
		return Matrix{}, false
	}
	if rest, ok = bytes.CutPrefix(rest, matrixKeyVals); !ok {
		return Matrix{}, false
	}
	rest, ok = scanArray(rest, nnz, func(k int, b []byte) int {
		v, l := floatLen(b)
		binary.LittleEndian.PutUint64(vals[8*k:], math.Float64bits(v))
		return l
	})
	if !ok || !closingBrace(rest) {
		return Matrix{}, false
	}
	return m, true
}

// DecodeSolveRequest reads a JSON /v1/solve body.
func DecodeSolveRequest(body []byte) (SolveRequest, error) {
	if req, ok := scanSolveRequest(body); ok {
		return req, nil
	}
	var req SolveRequest
	err := decodeBody(body, &req)
	return req, err
}

// scanSolveRequest decodes a canonical SolveRequest in two allocations,
// the handle and b. ok is false for any body it does not accept.
func scanSolveRequest(body []byte) (SolveRequest, bool) {
	handle, rest, ok := cutSolveHead(body)
	if !ok {
		return SolveRequest{}, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte{'['}); !ok {
		return SolveRequest{}, false
	}
	b := make([]float64, elements(rest))
	rest, ok = scanArray(rest, len(b), func(k int, tok []byte) int {
		v, l := floatLen(tok)
		b[k] = v
		return l
	})
	if !ok || !closingBrace(rest) {
		return SolveRequest{}, false
	}
	return SolveRequest{Handle: string(handle), B: b}, true
}

// elements counts the elements of the array whose '[' was just cut off
// rest, from its commas up to the first ']': a canonical array of
// numbers holds no other bracket or comma. On any other body the count
// is wrong and scanArray refutes it; it is never more than one element
// per two bytes, so it sizes no allocation beyond what a canonical body
// of that length would.
func elements(rest []byte) int {
	end := bytes.IndexByte(rest, ']')
	if end <= 0 {
		return 0
	}
	if c := bytes.Count(rest[:end], []byte{','}) + 1; 2*c-1 <= end {
		return c
	}
	return 0
}

// scanArray reads count comma-separated elements and the closing ']'
// off rest. elem stores element k from the start of its bytes and
// returns its length, 0 if it is not canonical.
func scanArray(rest []byte, count int, elem func(k int, b []byte) int) ([]byte, bool) {
	for k := 0; k < count; k++ {
		if k > 0 {
			if len(rest) == 0 || rest[0] != ',' {
				return nil, false
			}
			rest = rest[1:]
		}
		l := elem(k, rest)
		if l == 0 {
			return nil, false
		}
		rest = rest[l:]
	}
	if len(rest) == 0 || rest[0] != ']' {
		return nil, false
	}
	return rest[1:], true
}

// closingBrace reports whether rest is the body's closing '}' and only
// JSON whitespace after it.
func closingBrace(rest []byte) bool {
	rest, ok := bytes.CutPrefix(rest, []byte{'}'})
	return ok && len(bytes.TrimLeft(rest, " \t\r\n")) == 0
}

// indexLen reads the canonical non-negative integer at the start of b —
// 0, or a nonzero digit and at most nine more: a longer one exceeds
// every dimension — and returns it with its length (0: none).
func indexLen(b []byte) (v int64, l int) {
	for l < len(b) && l < 10 && '0' <= b[l] && b[l] <= '9' {
		if l == 1 && v == 0 {
			return 0, 0 // a leading zero
		}
		v = 10*v + int64(b[l]-'0')
		l++
	}
	if l < len(b) && '0' <= b[l] && b[l] <= '9' {
		return 0, 0
	}
	return v, l
}

// floatLen reads the JSON number at the start of b as encoding/json
// does, ParseFloat on its text, and returns it with its length (0: not
// a number strconv turns into a float64).
func floatLen(b []byte) (float64, int) {
	l := numberLen(b)
	if l == 0 {
		return 0, 0
	}
	v, err := strconv.ParseFloat(string(b[:l]), 64)
	if err != nil {
		return 0, 0
	}
	return v, l
}

// numberLen is the length of the JSON number at the start of b,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, or 0 if none starts
// there.
func numberLen(b []byte) int {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i + 1)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return 0
		}
		i = j
	}
	return i
}

// decodeBody decodes the first JSON value of body into v, the way the
// handlers have always read a request (trailing bytes are not looked
// at).
func decodeBody(body []byte, v any) error {
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// encodeSolution is the encoded SolveResponse for x, newline-terminated
// like every other response body.
func encodeSolution(x []float64) ([]byte, error) {
	out, err := json.Marshal(SolveResponse{X: x})
	if err != nil {
		return nil, fmt.Errorf("fleetrpc: encode solution: %w", err)
	}
	return append(out, '\n'), nil
}

// solutionShaped is the byte-level length guard on a shard's answer:
// body is {"x":[…]} with n ≥ 1 comma-separated elements and no nested
// array, counted without parsing a float. The decoded path keeps the
// same guard by decoding what passed it.
func solutionShaped(body []byte, n int) bool {
	inner, ok := bytes.CutPrefix(bytes.TrimRight(body, " \t\r\n"), solutionHead)
	if ok {
		inner, ok = bytes.CutSuffix(inner, solutionTail)
	}
	return ok && len(inner) > 0 && bytes.IndexByte(inner, ']') < 0 && bytes.Count(inner, []byte{','})+1 == n
}

// FrameContentType marks a body in one of the binary frame layouts.
// Between the stack's own processes — coordinator to shard, leader to
// follower — a matrix always travels as a frame; the receiving side
// picks the codec by Content-Type, so the JSON front door stays.
const FrameContentType = "application/x-gesp-frame"

// ErrBadMatrix is the class of every matrix a decoder refuses, in
// either codec: a frame of the wrong length, a non-positive or
// oversized dimension, fewer entries than columns, an index outside
// the matrix, a value that is not finite. WriteErr answers it 400.
var ErrBadMatrix = errors.New("fleetrpc: bad matrix")

// matrixMagic opens every matrix frame; matrixHead is the header size.
var matrixMagic = [4]byte{'G', 'M', 'X', '1'}

const matrixHead = 20

// Matrix is a validated triplet matrix in its binary frame, the form a
// matrix takes on every hop between the stack's own processes and the
// form the registry keeps: encoded once per submit, the same bytes go
// to the owner, its replicas and the follower coordinators.
//
//	offset    size    field
//	0         4       magic "GMX1"
//	4         8       n, uint64: 1 ≤ n ≤ MaxInt32
//	12        8       nnz, uint64: nnz ≥ n
//	20        4·nnz   rows, int32: 0 ≤ i < n
//	20+4nnz   4·nnz   cols, int32: 0 ≤ j < n
//	20+8nnz   8·nnz   vals, float64 bits: finite
//
// Every field is little-endian and a frame is exactly 20+16·nnz bytes:
// 16 B per entry against MatrixRequest's 24. Duplicate (row, col)
// entries are summed, as in the JSON form. A Matrix is immutable; its
// constructors are DecodeMatrix and encodeMatrix, which check every
// rule, and WireMatrix, whose CSC input has valid indices by
// construction (CSC checks its values).
type Matrix struct{ b []byte }

// Bytes is the frame.
func (m Matrix) Bytes() []byte { return m.b }

// N is the dimension, 0 for the zero Matrix.
func (m Matrix) N() int { return m.field(4) }

// Nnz is the number of triplet entries, 0 for the zero Matrix.
func (m Matrix) Nnz() int { return m.field(12) }

func (m Matrix) field(off int) int {
	if len(m.b) < matrixHead {
		return 0
	}
	return int(binary.LittleEndian.Uint64(m.b[off:]))
}

// entry reads triplet k.
func (m Matrix) entry(k int) (i, j int, v float64) {
	nnz := m.Nnz()
	le := binary.LittleEndian
	i = int(int32(le.Uint32(m.b[matrixHead+4*k:])))
	j = int(int32(le.Uint32(m.b[matrixHead+4*(nnz+k):])))
	v = math.Float64frombits(le.Uint64(m.b[matrixHead+8*(nnz+k):]))
	return i, j, v
}

// newMatrix allocates a frame for n and nnz; put fills it.
func newMatrix(n, nnz int) Matrix {
	b := make([]byte, matrixHead+16*nnz)
	copy(b, matrixMagic[:])
	binary.LittleEndian.PutUint64(b[4:], uint64(n))
	binary.LittleEndian.PutUint64(b[12:], uint64(nnz))
	return Matrix{b}
}

func (m Matrix) put(k, i, j int, v float64) {
	nnz := m.Nnz()
	le := binary.LittleEndian
	le.PutUint32(m.b[matrixHead+4*k:], uint32(int32(i)))
	le.PutUint32(m.b[matrixHead+4*(nnz+k):], uint32(int32(j)))
	le.PutUint64(m.b[matrixHead+8*(nnz+k):], math.Float64bits(v))
}

// checkDims is the size rule both codecs apply. Fewer entries than
// columns leaves a column empty: structurally singular. Checking that
// before the size bound also bounds the O(n) assembly allocation by
// the size of the body that was actually sent.
func checkDims(n, nnz int64) error {
	switch {
	case n <= 0:
		return fmt.Errorf("%w: dimension %d, want positive", ErrBadMatrix, n)
	case nnz < n:
		return fmt.Errorf("%w: %d entries for a %dx%d matrix: structurally singular", ErrBadMatrix, nnz, n, n)
	case n > math.MaxInt32:
		return fmt.Errorf("%w: dimension %d exceeds %d", ErrBadMatrix, n, math.MaxInt32)
	}
	return nil
}

// DecodeMatrix checks a frame against every rule of the layout and
// returns it as a Matrix, aliasing b.
func DecodeMatrix(b []byte) (Matrix, error) {
	if len(b) < matrixHead || [4]byte(b[:4]) != matrixMagic {
		return Matrix{}, fmt.Errorf("%w: not a matrix frame", ErrBadMatrix)
	}
	m := Matrix{b}
	n, nnz := m.N(), uint64(m.Nnz())
	if body := uint64(len(b) - matrixHead); body%16 != 0 || body/16 != nnz {
		return Matrix{}, fmt.Errorf("%w: %d-byte frame for %d entries", ErrBadMatrix, len(b), nnz)
	}
	if err := checkDims(int64(n), int64(nnz)); err != nil {
		return Matrix{}, err
	}
	for k := 0; k < int(nnz); k++ {
		i, j, v := m.entry(k)
		if i < 0 || i >= n || j < 0 || j >= n {
			return Matrix{}, fmt.Errorf("%w: entry %d at (%d,%d) outside %dx%d", ErrBadMatrix, k, i, j, n, n)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Matrix{}, fmt.Errorf("%w: entry %d at (%d,%d) is %v", ErrBadMatrix, k, i, j, v)
		}
	}
	return m, nil
}

// encodeMatrix checks the JSON triplet form and frames it: the front
// door's one conversion. JSON cannot spell a non-finite number, so the
// values need no check.
func encodeMatrix(req MatrixRequest) (Matrix, error) {
	if len(req.Rows) != len(req.Vals) || len(req.Cols) != len(req.Vals) {
		return Matrix{}, fmt.Errorf("%w: triplet arrays disagree: %d rows, %d cols, %d vals",
			ErrBadMatrix, len(req.Rows), len(req.Cols), len(req.Vals))
	}
	if err := checkDims(int64(req.N), int64(len(req.Vals))); err != nil {
		return Matrix{}, err
	}
	m := newMatrix(req.N, len(req.Vals))
	for k, v := range req.Vals {
		i, j := req.Rows[k], req.Cols[k]
		if i < 0 || i >= req.N || j < 0 || j >= req.N {
			return Matrix{}, fmt.Errorf("%w: entry %d at (%d,%d) outside %dx%d", ErrBadMatrix, k, i, j, req.N, req.N)
		}
		m.put(k, i, j, v)
	}
	return m, nil
}

// WireMatrix frames a CSC matrix, column by column.
func WireMatrix(a *sparse.CSC) Matrix {
	m := newMatrix(a.Rows, a.Nnz())
	k := 0
	for j := 0; j < a.Cols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			m.put(k, a.RowInd[p], j, a.Val[p])
			k++
		}
	}
	return m
}

// CSC assembles the matrix, summing duplicate entries. A non-finite
// value — possible only in a WireMatrix of such a CSC, the decoders
// refuse one — is an ErrBadMatrix: no shard is handed one.
func (m Matrix) CSC() (*sparse.CSC, error) {
	n, nnz := m.N(), m.Nnz()
	t := sparse.NewTriplet(n, n)
	for k := 0; k < nnz; k++ {
		i, j, v := m.entry(k)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: entry %d at (%d,%d) is %v", ErrBadMatrix, k, i, j, v)
		}
		t.Append(i, j, v)
	}
	return t.ToCSC(), nil
}

// encodeDegraded is the POST /v1/degraded body: the matrix frame, then
// b as n little-endian float64s.
func encodeDegraded(m Matrix, b []float64) []byte {
	out := make([]byte, 0, len(m.b)+8*len(b))
	out = append(out, m.b...)
	for _, v := range b {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// decodeDegraded splits and checks a /v1/degraded body. A non-finite b
// is poisoned input (422), as on the solve path.
func decodeDegraded(body []byte) (Matrix, []float64, error) {
	if len(body) < matrixHead {
		return Matrix{}, nil, fmt.Errorf("%w: not a matrix frame", ErrBadMatrix)
	}
	nnz := binary.LittleEndian.Uint64(body[12:])
	if nnz > uint64(len(body)-matrixHead)/16 {
		return Matrix{}, nil, fmt.Errorf("%w: %d-byte body for %d entries", ErrBadMatrix, len(body), nnz)
	}
	end := matrixHead + 16*int(nnz)
	m, err := DecodeMatrix(body[:end])
	if err != nil {
		return Matrix{}, nil, err
	}
	rest := body[end:]
	if len(rest) != 8*m.N() {
		return Matrix{}, nil, fmt.Errorf("%w: %d bytes of right-hand side for n=%d", ErrBadMatrix, len(rest), m.N())
	}
	b := make([]float64, m.N())
	for i := range b {
		b[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
		if math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
			return Matrix{}, nil, fmt.Errorf("right-hand side entry %d is %v: %w", i, b[i], resilience.ErrNonFiniteRHS)
		}
	}
	return m, b, nil
}
