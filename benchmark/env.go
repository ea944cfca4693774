package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is the header of every result file: enough to tell
// whether two files are comparable.
type environment struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Load1      float64 `json:"load1_at_start"`
	// Noisy marks a run started with a 1-minute load average above half
	// the core count: something else was using the machine.
	Noisy       bool    `json:"noisy"`
	Seed        int64   `json:"seed"`
	PatternSeed int64   `json:"pattern_seed"`
	GitCommit   string  `json:"git_commit"`
	WindowS     float64 `json:"window_s"`
	WarmupOps   int     `json:"warmup_ops"`
	Trace       bool    `json:"trace"`
}

func readEnvironment(cfg runConfig) environment {
	e := environment{
		NProc:       runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		Load1:       loadAverage(),
		Seed:        cfg.seed,
		PatternSeed: patternSeed,
		GitCommit:   gitCommit(cfg.root),
		WindowS:     cfg.window.Seconds(),
		WarmupOps:   warmupOps,
		Trace:       cfg.trace,
	}
	e.Noisy = e.Load1 > 0.5*float64(e.NProc)
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close() //gesp:errok — read-only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadAverage() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) == 0 {
		return 0
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0
	}
	return v
}

// gitCommit names the commit of the tree being measured; a checkout
// that is not a git repository (the acceptance pipeline's) has none.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB reads the peak resident set (VmHWM) of a process in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close() //gesp:errok — read-only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of pid %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("pid %d: no VmHWM in /proc status", pid)
}

// repoRoot finds the module root (the directory holding go.mod and
// cmd/gesp-serve) from the working directory upward, so the benchmark
// runs from the root (`go run ./benchmark`) and from its own directory
// (`go test`).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "gesp-serve")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: not inside the gesp module (no go.mod with cmd/gesp-serve above the working directory)")
		}
		dir = parent
	}
}
