package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"gesp/internal/sparse"
)

// The benchmark's own wire types for the documented routes
// POST /v1/matrix, POST /v1/solve and GET /v1/stats. They are declared
// here, not imported, so the client sees exactly what a user's would.

type matrixRequest struct {
	N    int       `json:"n"`
	Rows []int     `json:"rows"`
	Cols []int     `json:"cols"`
	Vals []float64 `json:"vals"`
}

type matrixResponse struct {
	Handle string `json:"handle"`
	N      int    `json:"n"`
}

type solveRequest struct {
	Handle string    `json:"handle"`
	B      []float64 `json:"b"`
}

type solveResponse struct {
	X []float64 `json:"x"`
}

// shardStats are the gesp-serve counters the benchmark reads.
type shardStats struct {
	SymbolicHits    uint64 `json:"symbolic_hits"`
	SymbolicMisses  uint64 `json:"symbolic_misses"`
	FactorHits      uint64 `json:"factor_hits"`
	FactorMisses    uint64 `json:"factor_misses"`
	FactorEvictions uint64 `json:"factor_evictions"`
	Solves          uint64 `json:"solves"`
	Batches         uint64 `json:"batches"`
	Expired         uint64 `json:"expired"`
}

// coordStats are the coordinator counters the benchmark reads.
type coordStats struct {
	Retries   uint64 `json:"retries"`
	Hedged    uint64 `json:"hedged"`
	Resubmits uint64 `json:"resubmits"`
	Degraded  uint64 `json:"degraded"`
	Failed    uint64 `json:"failed"`
}

func wireMatrix(a *sparse.CSC) matrixRequest {
	m := matrixRequest{N: a.Rows, Rows: make([]int, 0, a.Nnz()), Cols: make([]int, 0, a.Nnz()), Vals: a.Val}
	for j := 0; j < a.Cols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			m.Rows = append(m.Rows, a.RowInd[p])
			m.Cols = append(m.Cols, j)
		}
	}
	return m
}

// client is one closed-loop caller: one keep-alive connection per host.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

// post sends req as JSON and decodes a 200 response into resp. The
// encode, round trip and decode are child spans of parent. It returns
// the request body's size.
func (c *client) post(tr *tracer, op int64, parent *open, url string, req, resp any) (int, error) {
	sp := tr.start(op, parent, "wire.encode")
	body, err := json.Marshal(req)
	sp.end()
	if err != nil {
		return 0, err
	}
	sp = tr.start(op, parent, "http.roundtrip")
	raw, status, err := c.roundTrip(http.MethodPost, url, body)
	sp.end()
	if err != nil {
		return len(body), err
	}
	if status != http.StatusOK {
		return len(body), fmt.Errorf("POST %s: status %d: %.200s", url, status, raw)
	}
	sp = tr.start(op, parent, "wire.decode")
	err = json.Unmarshal(raw, resp)
	sp.end()
	return len(body), err
}

func (c *client) roundTrip(method, url string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close() //gesp:errok — the body was read to EOF; a close error cannot change the result
	raw, err := io.ReadAll(resp.Body)
	return raw, resp.StatusCode, err
}

// get decodes a 200 JSON response into out.
func (c *client) get(url string, out any) error {
	raw, status, err := c.roundTrip(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", url, status, raw)
	}
	return json.Unmarshal(raw, out)
}
