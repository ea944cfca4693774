package faultsim

// Process-level chaos: a generic re-exec harness that turns any test
// binary or benchmark runner into a set of real child processes it can
// SIGKILL, SIGSTOP, and SIGCONT mid-load. The numerical injectors in
// this package attack the solver's math; this file attacks the process
// boundary.
//
// Pattern: the parent binds every child's loopback listener first, so
// each child's payload (GESP_CHAOS_CHILD) can be built from the whole
// address list, then re-executes its own binary once per child. Child
// i inherits its listener as fd 3 and a ready pipe as fd 4; its entry
// point (a TestMain or a command main) sees ChildPayload, sets up on
// ChildListener, calls Ready, serves, and never returns. The parent
// closes its copies of both descriptors as soon as the child starts —
// so a killed child's port refuses connections — and stdout is not a
// protocol channel. The harness is ignorant of what the child serves:
// the run function lives with the server (fleetrpc.RunShardIfChild),
// which keeps faultsim importable from every engine's test suite
// without cycles.
//
// Everything here is real wall-clock, real processes, real signals —
// the opposite of the package's deterministic injectors — so every
// function carries the //gesp:wallclock opt-out from the detclock rule
// that governs this package.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// childEnv is the environment variable whose presence marks a process
// as a spawned child; its value is the opaque payload SpawnProcs built
// for it.
const childEnv = "GESP_CHAOS_CHILD"

// The child's inherited descriptors: exec.Cmd.ExtraFiles entry i is fd
// 3+i in the child.
const (
	listenerFD = 3
	readyFD    = 4
)

// ChildPayload reports whether this process is a spawned child and, if
// so, the payload its parent built for it. Call it first thing in
// TestMain or main.
func ChildPayload() (string, bool) {
	raw, ok := os.LookupEnv(childEnv)
	return raw, ok
}

// ChildListener returns the loopback listener the parent bound for
// this child. Connections queue on it from the moment the parent bound
// it, so the child may finish its setup before it accepts.
//
//gesp:wallclock — wraps a real inherited socket
func ChildListener() (net.Listener, error) {
	f := os.NewFile(listenerFD, "gesp-chaos-listener")
	//gesp:errok — FileListener holds its own duplicate of the descriptor
	defer f.Close()
	return net.FileListener(f)
}

// Ready tells the parent this child is set up: it writes one byte to
// the inherited ready pipe and closes it. Call it exactly once, before
// serving on ChildListener.
//
//gesp:wallclock — writes the real ready pipe to the parent
func Ready() {
	f := os.NewFile(readyFD, "gesp-chaos-ready")
	//gesp:errok — a failed write surfaces as the parent's "exited before ready"
	_, _ = f.Write([]byte{1})
	//gesp:errok — the close is the signal; nothing to do if it fails
	_ = f.Close()
}

// Proc is one live child process.
type Proc struct {
	Addr string
	cmd  *exec.Cmd

	waitOnce sync.Once
	waitErr  error
}

// Kill sends SIGKILL — the ungraceful death: no handoff, no goodbye,
// in-flight requests die with their TCP connections. The child's
// "signal: killed" exit status is the intended outcome, not an error.
//
//gesp:wallclock — real process signal
func (p *Proc) Kill() error {
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	//gesp:errok — a SIGKILLed child always reports a non-nil exit status
	_ = p.Wait()
	return nil
}

// Stop sends SIGSTOP: the process freezes but its sockets stay open,
// so connects succeed and requests hang — the closest a single machine
// gets to a network partition or a wedged peer.
//
//gesp:wallclock — real process signal
func (p *Proc) Stop() error { return p.cmd.Process.Signal(syscall.SIGSTOP) }

// Cont sends SIGCONT, ending a Stop.
//
//gesp:wallclock — real process signal
func (p *Proc) Cont() error { return p.cmd.Process.Signal(syscall.SIGCONT) }

// Wait reaps the process (idempotent).
//
//gesp:wallclock — blocks on real process exit
func (p *Proc) Wait() error {
	p.waitOnce.Do(func() { p.waitErr = p.cmd.Wait() })
	return p.waitErr
}

// ProcSet is a spawned child fleet.
type ProcSet struct {
	Procs []*Proc
}

// Addrs lists the children's addresses, spawn order.
func (s *ProcSet) Addrs() []string {
	addrs := make([]string, len(s.Procs))
	for i, p := range s.Procs {
		addrs[i] = p.Addr
	}
	return addrs
}

// Close SIGKILLs and reaps every child still running. Safe to defer
// unconditionally — already-dead children are already reaped.
//
//gesp:wallclock — real process teardown
func (s *ProcSet) Close() {
	for _, p := range s.Procs {
		//gesp:errok — teardown of possibly already-dead processes; nothing to do about failures
		_ = p.cmd.Process.Kill()
		//gesp:errok — killed processes report non-nil exit by design
		_ = p.Wait()
	}
}

// readyTimeout bounds how long the children may take to become ready.
// Generous: CI machines under load can take seconds to exec a large
// test binary.
const readyTimeout = 30 * time.Second

// SpawnProcs binds n loopback listeners, then re-executes the current
// binary n times, child i with the payload payload(i, addrs) and the
// i-th listener, and waits until every child has called Ready.
//
//gesp:wallclock — real process spawn with a host readiness deadline
func SpawnProcs(n int, payload func(i int, addrs []string) ([]byte, error)) (_ *ProcSet, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("chaos: resolve own binary: %w", err)
	}
	set := &ProcSet{}
	lns, readies := make([]*os.File, n), make([]*os.File, n)
	defer func() {
		closeAll(lns)
		closeAll(readies)
		if err != nil {
			set.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range lns {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return nil, fmt.Errorf("chaos: child %d: %w", i, lerr)
		}
		addrs[i] = ln.Addr().String()
		lns[i], err = ln.(*net.TCPListener).File()
		//gesp:errok — the duplicate in lns[i] keeps the socket listening
		_ = ln.Close()
		if err != nil {
			return nil, fmt.Errorf("chaos: child %d: %w", i, err)
		}
	}
	for i, ln := range lns {
		body, perr := payload(i, addrs)
		if perr != nil {
			return nil, fmt.Errorf("chaos: child %d: %w", i, perr)
		}
		var w *os.File
		if readies[i], w, err = os.Pipe(); err != nil {
			return nil, fmt.Errorf("chaos: child %d: %w", i, err)
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), childEnv+"="+string(body))
		cmd.Stderr = os.Stderr
		cmd.ExtraFiles = []*os.File{ln, w}
		err = cmd.Start()
		closeAll([]*os.File{ln, w}) // the child holds its own copies
		if err != nil {
			return nil, fmt.Errorf("chaos: child %d: %w", i, err)
		}
		set.Procs = append(set.Procs, &Proc{Addr: addrs[i], cmd: cmd})
	}
	deadline := time.Now().Add(readyTimeout)
	for i, r := range readies {
		if err = awaitReady(r, deadline); err != nil {
			return nil, fmt.Errorf("chaos: child %d: %w", i, err)
		}
	}
	return set, nil
}

// closeAll closes the parent's copies of descriptors; a second close of
// one already closed is harmless.
func closeAll(fs []*os.File) {
	for _, f := range fs {
		if f != nil {
			//gesp:errok — a parent-side copy, possibly closed already
			_ = f.Close()
		}
	}
}

// awaitReady reads a child's ready pipe: the byte Ready writes means
// ready; end of file without it means the child exited first.
//
//gesp:wallclock — host readiness deadline on a real pipe
func awaitReady(r *os.File, deadline time.Time) error {
	if err := r.SetReadDeadline(deadline); err != nil {
		return err
	}
	_, err := r.Read(make([]byte, 1))
	switch {
	case errors.Is(err, io.EOF):
		return errors.New("child exited before it was ready")
	case errors.Is(err, os.ErrDeadlineExceeded):
		return fmt.Errorf("child not ready within %v", readyTimeout)
	}
	return err
}
