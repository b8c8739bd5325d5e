package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/wire"
)

// daemon is one indoorqd subprocess on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan struct{} // closed once the process has been reaped
	// obs is the observer client: stats, health and the event stream.
	// Load streams have connections of their own (lane).
	obs *wire.Client
}

// startDaemon launches indoorqd with the given role arguments on a free
// loopback port. Its log goes to logPath so a failed run can show it.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark itself be killed outright, the kernel takes the
	// daemon down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, log: logf, done: make(chan struct{})}
	d.obs = wire.NewClient(d.url, &http.Client{})
	go func() {
		_ = cmd.Wait() // the exit status of a daemon we signal is not news
		close(d.done)
	}()
	return d, nil
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the daemon binds it; nothing else on a benchmark host is
// racing for loopback ports.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /readyz until it answers 200, the daemon dies, or the
// deadline passes.
func (d *daemon) waitReady(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if _, code, err := d.obs.Readyz(); err == nil && code == http.StatusOK {
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("daemon %s exited before it was ready:\n%s", d.url, d.logTail())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon %s not ready after %v:\n%s", d.url, timeout, d.logTail())
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill SIGKILLs the daemon and waits until it is gone.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.done
	d.log.Close()
}

// stop asks for a graceful shutdown and falls back to SIGKILL.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-d.done:
		d.log.Close()
	case <-time.After(5 * time.Second):
		d.kill()
	}
}

func (d *daemon) logTail() string {
	raw, err := os.ReadFile(d.log.Name())
	if err != nil {
		return err.Error()
	}
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return string(bytes.TrimSpace(raw))
}

// lane is one client's connections: one to each daemon, never shared.
type lane struct {
	leader, replica *wire.Client
}

func (c *cluster) newLane() *lane {
	hc := func() *http.Client {
		return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return &lane{leader: wire.NewClient(c.leader.url, hc()), replica: wire.NewClient(c.replica.url, hc())}
}

// isRefused reports whether a client error is the server's admission
// control turning the request away (HTTP 429).
func isRefused(err error) bool {
	return err != nil && strings.Contains(err.Error(), "429 Too Many Requests")
}

// procCPUSeconds reads the user+system CPU time a process has used.
func procCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the full line.
	rest := raw[bytes.LastIndexByte(raw, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clockTicksPerSecond = 100 // USER_HZ on every Linux ABI Go supports
	return (ut + st) / clockTicksPerSecond, nil
}

// procRSSMB reads a process's peak resident set in MiB.
func procRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
