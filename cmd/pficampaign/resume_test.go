package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// envMain re-execs this test binary as the real pficampaign CLI: when set,
// the process parses its own command line and runs main() instead of the
// test suite. Spawned stdio workers inherit the variable, so the
// -spawn-workers fleet legs work unchanged inside a re-exec'd coordinator.
const envMain = "PFI_PFICAMPAIGN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(envMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func startSelf(t *testing.T, dir string, args ...string) (*exec.Cmd, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), envMain+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, &out, &errb
}

func runSelf(t *testing.T, dir string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd, out, errb := startSelf(t, dir, args...)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("pficampaign %v: %v\nstdout:\n%s\nstderr:\n%s", args, err, out, errb)
	}
	return out.String(), errb.String()
}

// killAfterJournal waits for the journal to hold a record containing
// marker — proof at least one cell was banked — then SIGKILLs the
// process: no drain, no signal handler, exactly the crash the journal
// exists to survive.
func killAfterJournal(t *testing.T, cmd *exec.Cmd, out, errb *bytes.Buffer, path string, marker []byte) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, _ := os.ReadFile(path); bytes.Contains(b, marker) {
			break
		}
		if cmd.Process.Signal(syscall.Signal(0)) != nil {
			t.Fatalf("process exited before journaling %q\nstdout:\n%s\nstderr:\n%s", marker, out, errb)
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal never held %q\nstdout:\n%s\nstderr:\n%s", marker, out, errb)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
}

// comparableSummary keeps the deterministic sweep output — the per-verdict
// lines and the pass count — and drops everything wall-clock or topology
// dependent (the sweeping banner, the resumed line, throughput stats, and
// fleet accounting).
func comparableSummary(out string) string {
	var keep []string
	for _, ln := range strings.Split(out, "\n") {
		if strings.HasPrefix(ln, "sweeping ") || strings.HasPrefix(ln, "resumed ") ||
			strings.HasPrefix(ln, "swept ") || strings.HasPrefix(ln, "fleet:") {
			continue
		}
		keep = append(keep, ln)
	}
	return strings.Join(keep, "\n")
}

// TestSweepKillResumeByteIdentical SIGKILLs a journaled sweep mid-matrix
// and proves the -resume restart reproduces the uninterrupted sweep's
// verdict stream byte for byte — for the in-process pool and for a fleet
// coordinator restart at 2 and at 4 real spawned worker processes (the
// orphaned workers of the killed coordinator exit on stdin EOF; the
// restart spawns a fresh fleet and re-runs only the missing cells).
func TestSweepKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("boots full GMP clusters in subprocesses")
	}

	refOut, _ := runSelf(t, t.TempDir(), "-workers", "2", "-quiet")
	want := comparableSummary(refOut)
	if !strings.Contains(want, "cases passed") {
		t.Fatalf("reference sweep produced no summary:\n%s", refOut)
	}

	legs := []struct {
		name string
		args []string
	}{
		{"pool", []string{"-workers", "1"}},
		{"fleet-2-workers", []string{"-spawn-workers", "2"}},
		{"fleet-4-workers", []string{"-spawn-workers", "4"}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append(append([]string{}, leg.args...), "-quiet", "-journal", "j.wal")
			cmd, out, errb := startSelf(t, dir, args...)
			killAfterJournal(t, cmd, out, errb, filepath.Join(dir, "j.wal"), []byte(`"type":"verdict"`))

			gotOut, _ := runSelf(t, dir, append(args, "-resume")...)
			if !strings.Contains(gotOut, "resumed ") {
				t.Errorf("resume run never reported journaled cells:\n%s", gotOut)
			}
			if got := comparableSummary(gotOut); got != want {
				t.Errorf("resumed summary diverged\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestConnectWorkerOutlivesCoordinatorStart starts a -connect worker
// before any coordinator serves its address — its first hello fails —
// then brings a -serve coordinator up there. The worker must reconnect
// and run the whole sweep: the coordinator spawns no workers of its own.
func TestConnectWorkerOutlivesCoordinatorStart(t *testing.T) {
	if testing.Short() {
		t.Skip("boots full GMP clusters in subprocesses")
	}
	// Hold the address with a listener that hangs up on the worker's
	// first request, so the worker provably starts before the coordinator.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	refused := make(chan struct{})
	go func() {
		if c, err := ln.Accept(); err == nil {
			c.Close()
		}
		close(refused)
	}()
	worker, _, werr := startSelf(t, t.TempDir(), "-connect", "http://"+addr)
	select {
	case <-refused:
	case <-time.After(30 * time.Second):
		worker.Process.Kill()
		_ = worker.Wait()
		t.Fatalf("worker never dialed the coordinator address\nworker stderr:\n%s", werr)
	}
	ln.Close()

	coord, out, errb := startSelf(t, t.TempDir(), "-serve", addr, "-types", "HEARTBEAT", "-faults", "drop")
	done := make(chan error, 1)
	go func() { done <- coord.Wait() }()
	select {
	case err = <-done:
	case <-time.After(time.Minute):
		coord.Process.Kill()
		<-done
		err = fmt.Errorf("timed out waiting for the sweep")
	}
	// A worker that saw the drain has exited; one that lost the closed
	// server is still redialing. Either way its part is done.
	worker.Process.Kill()
	_ = worker.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v\nstdout:\n%s\nstderr:\n%s\nworker stderr:\n%s", err, out, errb, werr)
	}
	for _, want := range []string{"2/2 cases passed", "over 1 worker(s)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("coordinator stdout lacks %q:\n%s\nworker stderr:\n%s", want, out, werr)
		}
	}
	if !strings.Contains(werr.String(), "reconnecting") {
		t.Errorf("worker never reported a reconnect:\n%s", werr)
	}
}
