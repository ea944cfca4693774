package faultsim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the child entry point: a spawned child serves a
// trivial one-byte TCP responder — the harness is generic, so its own
// test needs no solver stack at all.
func TestMain(m *testing.M) {
	if payload, ok := ChildPayload(); ok {
		runPingChild(payload)
	}
	os.Exit(m.Run())
}

// runPingChild writes well over a pipe buffer of noise to stdout (which
// is not a protocol channel, so it must not hold up the spawn), reports
// ready, and answers every connection on its inherited listener with
// its payload: the address its parent bound for it.
//
//gesp:wallclock — child-process server loop: real sockets
func runPingChild(payload string) {
	ln, err := ChildListener()
	if err != nil {
		os.Exit(1)
	}
	//gesp:errok — the noise is only there to be ignored
	_, _ = os.Stdout.Write(bytes.Repeat([]byte("noise before ready\n"), 8192))
	Ready()
	for {
		conn, err := ln.Accept()
		if err != nil {
			os.Exit(1)
		}
		//gesp:errok — best-effort reply; the parent side asserts
		_, _ = conn.Write([]byte(payload))
		//gesp:errok — close of a one-shot connection
		_ = conn.Close()
	}
}

// ping dials the child and requires its answer to be addr.
//
//gesp:wallclock — real network round trip with a deadline
func ping(addr string, timeout time.Duration) error {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	//gesp:errok — close of a one-shot connection
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	got, err := io.ReadAll(conn)
	if err == nil && string(got) != addr {
		err = fmt.Errorf("child at %s answered %q", addr, got)
	}
	return err
}

// TestSpawnAndKillProcs exercises the harness itself: spawned children
// answer on the addresses bound for them, SIGSTOP freezes them
// mid-connection, SIGCONT thaws them, and SIGKILL ends them for good —
// the port then refuses connections, which it would not if the parent
// still held a copy of the listener.
func TestSpawnAndKillProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("process chaos harness: skipped in -short")
	}
	procs, err := SpawnProcs(2, func(i int, addrs []string) ([]byte, error) { return []byte(addrs[i]), nil })
	if err != nil {
		t.Fatal(err)
	}
	defer procs.Close()
	if len(procs.Addrs()) != 2 {
		t.Fatalf("addrs: %v", procs.Addrs())
	}
	for i, addr := range procs.Addrs() {
		if err := ping(addr, 5*time.Second); err != nil {
			t.Fatalf("child %d never answered: %v", i, err)
		}
	}

	// Stopped: the socket's backlog may still accept, but no reply
	// comes until SIGCONT.
	if err := procs.Procs[0].Stop(); err != nil {
		t.Fatal(err)
	}
	if err := ping(procs.Procs[0].Addr, 100*time.Millisecond); err == nil {
		t.Fatal("a SIGSTOPped child answered")
	}
	if err := procs.Procs[0].Cont(); err != nil {
		t.Fatal(err)
	}
	if err := ping(procs.Procs[0].Addr, 5*time.Second); err != nil {
		t.Fatalf("child after SIGCONT: %v", err)
	}

	// Killed: connections fail, Kill reports success, and a second
	// Kill of the reaped child must merely not panic.
	if err := procs.Procs[0].Kill(); err != nil {
		t.Fatal(err)
	}
	if err := ping(procs.Procs[0].Addr, 100*time.Millisecond); err == nil {
		t.Fatal("a SIGKILLed child answered")
	}
	conn, err := net.Dial("tcp", procs.Procs[0].Addr)
	if err == nil {
		//gesp:errok — close of a connection that should not exist
		conn.Close()
		t.Fatal("a SIGKILLed child's port accepted a connection")
	}
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("dial of a SIGKILLed child: %v, want connection refused", err)
	}
	//gesp:errok — a second Kill of a reaped process may error by platform
	_ = procs.Procs[0].Kill()

	// The sibling is unaffected.
	if err := ping(procs.Procs[1].Addr, 5*time.Second); err != nil {
		t.Fatalf("sibling child: %v", err)
	}
}
