package perf

import (
	"path/filepath"
	"testing"
)

func baseline() *File {
	return &File{
		SchemaVersion: SchemaVersion,
		GoVersion:     "go0.0",
		Entries: []Entry{
			{Name: "kernel/matmul/192x24x24", Class: "kernel", HotPath: true, NsPerOp: 1000, AllocsPerOp: 0},
			{Name: "engine/scalar-serial/AF23560", Class: "engine", HotPath: true, NsPerOp: 500000, AllocsPerOp: -1},
			{Name: "engine/dag-parallel/AF23560", Class: "engine", HotPath: false, NsPerOp: 200000, AllocsPerOp: -1},
		},
	}
}

// TestCompareGatesSyntheticRegression is the acceptance check for the
// 5% gate: a synthetic >5% ns/op slowdown on a hot-path entry must be
// reported, a 4% one must not, and non-hot entries never gate.
func TestCompareGatesSyntheticRegression(t *testing.T) {
	old := baseline()

	within := baseline()
	within.Entries[0].NsPerOp = 1040   // +4%: inside tolerance
	within.Entries[2].NsPerOp = 900000 // +350% on a non-hot entry: ignored
	if regs := Compare(old, within, 0.05, false); len(regs) != 0 {
		t.Fatalf("within-tolerance snapshot flagged: %+v", regs)
	}

	slow := baseline()
	slow.Entries[0].NsPerOp = 1060 // +6%: over the 5% gate
	regs := Compare(old, slow, 0.05, false)
	if len(regs) != 1 || regs[0].Kind != "ns_per_op" || regs[0].Name != "kernel/matmul/192x24x24" {
		t.Fatalf("6%% regression not gated: %+v", regs)
	}
	// The same snapshot passes in allocs-only mode (CI on a different
	// machine must not fail on wall time).
	if regs := Compare(old, slow, 0.05, true); len(regs) != 0 {
		t.Fatalf("allocs-only mode gated on ns/op: %+v", regs)
	}
}

func TestCompareGatesAllocsAndCoverage(t *testing.T) {
	old := baseline()

	leak := baseline()
	leak.Entries[0].AllocsPerOp = 2
	regs := Compare(old, leak, 0.05, true)
	if len(regs) != 1 || regs[0].Kind != "allocs_per_op" {
		t.Fatalf("alloc increase not gated in allocs-only mode: %+v", regs)
	}

	missing := baseline()
	missing.Entries = missing.Entries[1:] // drop the hot kernel entry
	regs = Compare(old, missing, 0.05, true)
	if len(regs) != 1 || regs[0].Kind != "missing" {
		t.Fatalf("dropped hot-path entry not gated: %+v", regs)
	}

	// Unmeasured allocs (-1 sentinel) never gate.
	unmeasured := baseline()
	unmeasured.Entries[1].NsPerOp = 500001
	if regs := Compare(old, unmeasured, 0.05, true); len(regs) != 0 {
		t.Fatalf("-1 alloc sentinel gated: %+v", regs)
	}
}

func TestFileRoundTripAndSchemaGuard(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	f := baseline()
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(f.Entries) || got.Entries[0] != f.Entries[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	f.SchemaVersion = SchemaVersion + 1
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

// TestSuiteQuickRun smoke-tests the measurement suite end to end at a
// tiny scale: every expected entry present, hot kernels alloc-free.
func TestSuiteQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run factors the testbed matrix")
	}
	f, err := Run(0.15, true)
	if err != nil {
		t.Fatal(err)
	}
	if f.SchemaVersion != SchemaVersion || !f.Quick {
		t.Fatalf("bad snapshot header: %+v", f)
	}
	classes := map[string]int{}
	for _, e := range f.Entries {
		classes[e.Class]++
		if e.NsPerOp <= 0 {
			t.Errorf("%s: non-positive ns/op %v", e.Name, e.NsPerOp)
		}
		if e.Class == "kernel" && e.AllocsPerOp != 0 {
			t.Errorf("%s: hot kernel reports %v allocs/op", e.Name, e.AllocsPerOp)
		}
		// The ordering is a transpose, a pattern and two slabs.
		if e.Name == "analysis/order/"+Matrix && (e.AllocsPerOp < 0 || e.AllocsPerOp > 12) {
			t.Errorf("%s: %v allocs/op, want 0..12", e.Name, e.AllocsPerOp)
		}
	}
	for _, c := range []string{"kernel", "analysis", "engine", "solve", "sim"} {
		if classes[c] == 0 {
			t.Errorf("no %q entries in suite output", c)
		}
	}
}
