package fleetha

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"gesp/internal/fleetrpc"
	"gesp/internal/matgen"
	"gesp/internal/serve"
	"gesp/internal/sparse"
)

// smallMatrix is the frame of a 2x2 matrix with three entries.
func smallMatrix() fleetrpc.Matrix {
	t := sparse.NewTriplet(2, 2)
	t.Append(0, 0, 4)
	t.Append(1, 0, -1)
	t.Append(1, 1, 3)
	return fleetrpc.WireMatrix(t.ToCSC())
}

// frameSeeds are encoded replicate requests and state answers: a
// first contact's whole log, a heartbeat, an export.
func frameSeeds(t testing.TB) [][]byte {
	m := smallMatrix()
	h := serve.Handle{Key: serve.FactorKey{Pattern: 0xab, Values: 2}, N: 2}
	h2 := serve.Handle{Key: serve.FactorKey{Pattern: 0xab, Values: 3}, N: 2}
	var out [][]byte
	for _, v := range []interface{ MarshalBinary() ([]byte, error) }{
		ReplicateRequest{Term: 3, LeaderAddr: "127.0.0.1:1", Seq: 9, Shards: []string{"a:1", "b:2"}, Dead: []int{1}, RingGen: 2,
			Entries: []fleetrpc.RegistryEntry{{Handle: h, Matrix: m}, {Handle: h2, Matrix: m}}},
		ReplicateRequest{Term: 4, LeaderID: 1, Seq: 10},
		StateResponse{ID: 2, Term: 3, AppliedSeq: 9, Shards: []string{"a:1"}, Entries: []fleetrpc.RegistryEntry{{Handle: h, Matrix: m}}},
	} {
		b, err := v.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzReplicateFrame: no input makes the replicate or state decoder
// panic; each gives a typed error (a malformed frame, or a bad matrix
// inside one) or a value, and an accepted frame re-encodes to the same
// bytes.
func FuzzReplicateFrame(f *testing.F) {
	for _, b := range frameSeeds(f) {
		f.Add(b)
		f.Add(b[:len(b)-1])
		f.Add(append(bytes.Clone(b), 0))
	}
	snap := frameSeeds(f)[0]
	f.Add(bytes.Replace(snap, []byte(`{"term"`), []byte(`{ "term"`), 1))                // header not canonical
	f.Add(bytes.Replace(snap, []byte(`"term"`), []byte(`"TERM"`), 1))                   // key case
	f.Add(bytes.Replace(snap, []byte("GMX1"), []byte("GMX0"), 1))                       // bad matrix inside
	f.Add(bytes.Replace(snap, []byte("00ab.v"), []byte("00AB.v"), 1))                   // handle not canonical
	f.Add(append([]byte("GHA1\x02\x00\x00\x00{}"), 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff)) // chunk past the end
	f.Add([]byte(`{"term":1}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		typed := func(err error) bool { return errors.Is(err, errBadFrame) || errors.Is(err, fleetrpc.ErrBadMatrix) }
		var req ReplicateRequest
		if err := req.UnmarshalBinary(body); err != nil {
			if !typed(err) {
				t.Fatalf("replicate %q: untyped error %v", body, err)
			}
		} else if again, err := req.MarshalBinary(); err != nil || !bytes.Equal(again, body) {
			t.Fatalf("replicate %q: re-encoded as %q, %v", body, again, err)
		}
		var st StateResponse
		if err := st.UnmarshalBinary(body); err != nil {
			if !typed(err) {
				t.Fatalf("state %q: untyped error %v", body, err)
			}
		} else if again, err := st.MarshalBinary(); err != nil || !bytes.Equal(again, body) {
			t.Fatalf("state %q: re-encoded as %q, %v", body, again, err)
		}
	})
}

// TestReplicateSpeaksFrames: over HTTP a follower applies a replicate
// frame, refuses the same request as JSON with a 400, and exports what
// it applied on /ha/v1/state as a frame holding the very bytes the
// leader sent.
func TestReplicateSpeaksFrames(t *testing.T) {
	shards := testShardServers(t, 1)
	c := startCluster(t, 2, shards, func(_ int, cfg *Config) {
		cfg.Lease = time.Hour // no elections; the test is the leader
	})
	ctx := context.Background()
	hc := fleetrpc.NewHTTPClient()
	url := "http://" + c.addrs[0] + "/ha/v1/"
	m := smallMatrix()
	h := serve.Handle{Key: serve.FactorKey{Pattern: 1, Values: 2}, N: 2}
	req := ReplicateRequest{Term: 7, LeaderID: 1, LeaderAddr: c.addrs[1], Seq: 1, Shards: shards,
		Entries: []fleetrpc.RegistryEntry{{Handle: h, Matrix: m}}}

	asJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fleetrpc.DoBytes(ctx, hc, http.MethodPost, url+"replicate", "application/json", asJSON)
	if re := (*fleetrpc.RemoteError)(nil); !errors.As(err, &re) || re.Status != http.StatusBadRequest {
		t.Fatalf("JSON replicate: %v, want a 400", err)
	}

	body, err := req.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	out, err := fleetrpc.DoBytes(ctx, hc, http.MethodPost, url+"replicate", fleetrpc.FrameContentType, body)
	if err != nil {
		t.Fatal(err)
	}
	var resp ReplicateResponse
	if err := json.Unmarshal(out, &resp); err != nil || !resp.OK || resp.AppliedSeq != 1 {
		t.Fatalf("replicate answer %s: %v", out, err)
	}

	out, err = fleetrpc.DoBytes(ctx, hc, http.MethodGet, url+"state", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var st StateResponse
	if err := st.UnmarshalBinary(out); err != nil {
		t.Fatal(err)
	}
	if st.ID != 0 || st.Term != 7 || len(st.Entries) != 1 || st.Entries[0].Handle != h || !bytes.Equal(st.Entries[0].Matrix.Bytes(), m.Bytes()) {
		t.Fatalf("exported state %+v", st)
	}
}

// snapshotRegistry is k registry entries shaped like the fleet-churn
// benchmark's: its six patterns — 2-D convection-diffusion meshes of
// 76² and 64², 3-D ones of 16²×8 and 14²×7, two 300-node
// harmonic-balance circuits — each entry a fresh value variant, in
// turn. The registry never drops an entry, so one grows by every
// refactor-submit a window makes.
func snapshotRegistry(k int) []fleetrpc.RegistryEntry {
	rng := rand.New(rand.NewSource(1))
	patterns := []*sparse.CSC{
		matgen.ConvectionDiffusion2D(76, 76, 1.5, 0.5, rng),
		matgen.ConvectionDiffusion3D(16, 16, 8, 1, 1, 1, 1, rng),
		matgen.HarmonicBalance(300, 8, 4, rng),
		matgen.ConvectionDiffusion2D(64, 64, 1.5, 0.5, rng),
		matgen.ConvectionDiffusion3D(14, 14, 7, 1, 1, 1, 1, rng),
		matgen.HarmonicBalance(300, 8, 4, rng),
	}
	entries := make([]fleetrpc.RegistryEntry, k)
	for i := range entries {
		a := patterns[i%len(patterns)].Clone()
		for p := range a.Val {
			a.Val[p] *= 1 + 0.1*rng.NormFloat64()
		}
		h := serve.Handle{Key: serve.FactorKey{Pattern: uint64(i % len(patterns)), Values: uint64(i)}, N: a.Rows}
		entries[i] = fleetrpc.RegistryEntry{Handle: h, Matrix: fleetrpc.WireMatrix(a)}
	}
	return entries
}

// BenchmarkSnapshotCodec times the encode and the decode of a
// replicate batch carrying the whole registry log (a first contact
// after a takeover) and of a /ha/v1/state answer: a registry of the
// fleet-churn set-up's 12 systems, then of 82 and 176, what one 10 s
// fleet-churn window leaves behind (30 % of its operations are
// submits). A peer call's deadline is Lease/2.
func BenchmarkSnapshotCodec(b *testing.B) {
	for _, k := range []int{12, 82, 176} {
		entries := snapshotRegistry(k)
		shards := []string{"127.0.0.1:1", "127.0.0.1:2"}
		for _, c := range []struct {
			name string
			enc  interface{ MarshalBinary() ([]byte, error) }
			dec  interface{ UnmarshalBinary([]byte) error }
		}{
			{"replicate-log", ReplicateRequest{Term: 2, Seq: 9, Entries: entries, Shards: shards}, &ReplicateRequest{}},
			{"state", StateResponse{Term: 2, AppliedSeq: 9, Entries: entries, Shards: shards}, &StateResponse{}},
		} {
			body, err := c.enc.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%d/encode", c.name, k), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				for i := 0; i < b.N; i++ {
					if _, err := c.enc.MarshalBinary(); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/%d/decode", c.name, k), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				for i := 0; i < b.N; i++ {
					if err := c.dec.UnmarshalBinary(body); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
