package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The fleet workloads drive the shipped binaries as real processes:
// 2 × gesp-serve shards and 3 × gesp-fleet HA coordinators, plus one
// non-HA coordinator on a traced run (depth d3 of the ladder).
const (
	numShards = 2
	numHA     = 3
	// startTimeout bounds every readiness wait. The election alone
	// takes about one 1 s lease; a loaded box gets ten times that.
	startTimeout = 30 * time.Second
)

// child is one spawned process.
type child struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
}

// cluster is the running topology of one set-up.
type cluster struct {
	dir      string // temp dir holding the binaries, removed on stop
	children []*child
	shards   []string // host:port of each gesp-serve
	leader   string   // host:port of the elected HA coordinator
	plain    string   // host:port of the non-HA coordinator, "" without ladder
}

// live holds every cluster not yet stopped, so that an interrupt or a
// fatal error can kill the children and remove the temp dirs.
var live struct {
	mu       sync.Mutex
	clusters []*cluster
}

func killAllChildren() {
	live.mu.Lock()
	cs := append([]*cluster(nil), live.clusters...)
	live.mu.Unlock()
	for _, c := range cs {
		//gesp:errok — last-resort cleanup on the way out; there is no one left to report a failed kill to
		_, _ = c.stop()
	}
}

// freeAddrs picks n distinct free loopback ports by listening on
// port 0 and closing again.
func freeAddrs(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close() //gesp:errok — the listener only reserved a port number
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// startCluster builds the two binaries into a temp dir under
// .bench_build, starts the topology and waits until a leader serves.
// Every step is part of setup_s. shardArgs are extra gesp-serve flags;
// ladder adds the non-HA coordinator.
func startCluster(cfg runConfig, workload string, shardArgs []string, ladder bool) (c *cluster, err error) {
	build := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(build, "fleet-")
	if err != nil {
		return nil, err
	}
	c = &cluster{dir: dir}
	live.mu.Lock()
	live.clusters = append(live.clusters, c)
	live.mu.Unlock()
	defer func() {
		if err != nil {
			//gesp:errok — the start error is the one to report; stop only reclaims what did start
			_, _ = c.stop()
		}
	}()

	gobuild := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/gesp-serve", "./cmd/gesp-fleet")
	gobuild.Dir = cfg.root
	if out, err := gobuild.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build of the fleet binaries: %w\n%s", err, out)
	}

	n := numShards + numHA
	if ladder {
		n++
	}
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	c.shards = addrs[:numShards]
	ha := addrs[numShards : numShards+numHA]
	logDir := filepath.Join(resultsDir(cfg), "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	spawn := func(name, bin string, args ...string) error {
		logf, err := os.Create(filepath.Join(logDir, workload+"-"+name+".log"))
		if err != nil {
			return err
		}
		cmd := exec.Command(filepath.Join(dir, bin), args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// Backstop for exits that skip stop(): a panic, a test timeout.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close() //gesp:errok — nothing was written; the start error is the one to report
			return fmt.Errorf("starting %s: %w", name, err)
		}
		c.children = append(c.children, &child{name: name, cmd: cmd, log: logf})
		return nil
	}

	for i, a := range c.shards {
		args := append([]string{"-addr", a}, shardArgs...)
		if err := spawn(fmt.Sprintf("shard%d", i), "gesp-serve", args...); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), startTimeout)
	defer cancel()
	for _, a := range c.shards {
		if err := waitOK(ctx, "http://"+a+"/v1/stats"); err != nil {
			return nil, err
		}
	}
	join := strings.Join(c.shards, ",")
	for i, a := range ha {
		if err := spawn(fmt.Sprintf("coord%d", i), "gesp-fleet", "-addr", a, "-join", join,
			"-ha-id", fmt.Sprint(i), "-ha-peers", strings.Join(ha, ",")); err != nil {
			return nil, err
		}
	}
	if ladder {
		c.plain = addrs[n-1]
		if err := spawn("plain", "gesp-fleet", "-addr", c.plain, "-join", join); err != nil {
			return nil, err
		}
		if err := waitOK(ctx, "http://"+c.plain+"/v1/stats"); err != nil {
			return nil, err
		}
	}
	if c.leader, err = waitLeader(ctx, ha); err != nil {
		return nil, err
	}
	return c, nil
}

// poll calls try every few milliseconds until it reports done or ctx
// ends; readiness is always an observed state, never a fixed wait.
func poll(ctx context.Context, what string, try func() bool) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if try() {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s: %w", what, ctx.Err())
		case <-tick.C:
		}
	}
}

func waitOK(ctx context.Context, url string) error {
	return poll(ctx, url, func() bool {
		resp, err := http.Get(url)
		if err != nil {
			return false
		}
		resp.Body.Close() //gesp:errok — only the status matters to a readiness probe
		return resp.StatusCode == http.StatusOK
	})
}

// waitLeader polls /ha/v1/status on every coordinator until one says
// it leads, then until that one serves /v1/stats (its fleet is up).
func waitLeader(ctx context.Context, ha []string) (string, error) {
	var leader string
	err := poll(ctx, "an HA leader", func() bool {
		for _, a := range ha {
			resp, err := http.Get("http://" + a + "/ha/v1/status")
			if err != nil {
				continue
			}
			var st struct {
				Role string `json:"role"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close() //gesp:errok — decoded already; a close error cannot change the role read
			if err == nil && st.Role == "leader" {
				leader = a
				return true
			}
		}
		return false
	})
	if err != nil {
		return "", err
	}
	return leader, waitOK(ctx, "http://"+leader+"/v1/stats")
}

// stop reads every child's peak RSS, kills the children, waits for
// them, and removes the temp dir. It is safe to call twice.
func (c *cluster) stop() (rssMB float64, err error) {
	live.mu.Lock()
	for i, x := range live.clusters {
		if x == c {
			live.clusters = append(live.clusters[:i], live.clusters[i+1:]...)
			break
		}
	}
	live.mu.Unlock()
	for _, ch := range c.children {
		mb, rerr := peakRSSMB(ch.cmd.Process.Pid)
		if rerr != nil && err == nil {
			err = fmt.Errorf("%s exited before the run ended (see its log): %w", ch.name, rerr)
		}
		rssMB += mb
	}
	for _, ch := range c.children {
		//gesp:errok — Kill fails only when the child is already gone, which Wait then reports
		_ = ch.cmd.Process.Kill()
	}
	for _, ch := range c.children {
		//gesp:errok — a killed child always "fails" with its signal; that is the expected outcome
		_ = ch.cmd.Wait()
		ch.log.Close() //gesp:errok — a diagnostic log; losing its tail does not change the measurement
	}
	c.children = nil
	if rerr := os.RemoveAll(c.dir); rerr != nil && err == nil {
		err = rerr
	}
	return rssMB, err
}
