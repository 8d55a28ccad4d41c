// Package harness starts, observes and stops the real server processes the
// benchmark measures: free-port allocation, /healthz readiness, SIGTERM
// drain with a kill fallback, /proc readers for CPU time and peak RSS, and a
// Prometheus text scraper with counter deltas. Nothing here knows what a
// query is; package workload builds deployments out of these pieces.
package harness

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// FreeAddr reserves a loopback TCP port by binding port 0 and closing the
// listener; the process started next binds it for real. The window between
// the two is the usual race of this technique — acceptable on loopback with
// one benchmark per host, and a lost race fails readiness loudly instead of
// measuring the wrong process.
func FreeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("harness: reserving a port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return "", fmt.Errorf("harness: releasing reserved port: %w", err)
	}
	return addr, nil
}

// Proc is one child process under measurement.
type Proc struct {
	Name string
	Addr string // host:port it listens on
	cmd  *exec.Cmd
	// stderrPath is where the child's stderr is collected; the file is
	// removed on a clean stop and kept when the child misbehaved.
	stderrPath string
	stderr     *os.File
	done       chan struct{}
	waitErr    error
}

// Start launches bin with args, collecting stderr under logDir. The child
// gets its own process group, so a signal to the benchmark's group reaches
// it only through Stop's orderly drain, and is killed by the kernel should
// the benchmark itself die without stopping it.
func Start(name, bin, addr, logDir string, args ...string) (*Proc, error) {
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	path := filepath.Join(logDir, name+".stderr.log")
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = f
	cmd.Stdout = f
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("harness: starting %s: %w", name, err)
	}
	p := &Proc{Name: name, Addr: addr, cmd: cmd, stderrPath: path, stderr: f, done: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// PID returns the child's process id.
func (p *Proc) PID() int { return p.cmd.Process.Pid }

// URL returns the child's base URL.
func (p *Proc) URL() string { return "http://" + p.Addr }

// Exited reports whether the child has already ended.
func (p *Proc) Exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// WaitHealthy polls GET /healthz until it answers 200, the child exits, or
// the timeout passes.
func (p *Proc) WaitHealthy(client *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		if p.Exited() {
			return fmt.Errorf("harness: %s exited before becoming healthy (stderr kept at %s): %v", p.Name, p.stderrPath, p.waitErr)
		}
		resp, err := client.Get(p.URL() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		last = err
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("harness: %s not healthy after %v: %v", p.Name, timeout, last)
}

// Stop drains the child with SIGTERM and waits; after grace it is killed.
// A clean stop (exit 0 after SIGTERM) removes the stderr log; anything else
// keeps it and is reported, so a crash during measurement cannot hide.
func (p *Proc) Stop(grace time.Duration) error {
	defer p.stderr.Close()
	if p.Exited() {
		return fmt.Errorf("harness: %s had already exited (stderr kept at %s): %v", p.Name, p.stderrPath, p.waitErr)
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("harness: signalling %s: %w", p.Name, err)
	}
	select {
	case <-p.done:
	case <-time.After(grace):
		_ = p.cmd.Process.Kill() // the wait below reports the outcome
		<-p.done
		return fmt.Errorf("harness: %s ignored SIGTERM for %v and was killed (stderr kept at %s)", p.Name, grace, p.stderrPath)
	}
	if p.waitErr != nil {
		return fmt.Errorf("harness: %s drained uncleanly (stderr kept at %s): %v", p.Name, p.stderrPath, p.waitErr)
	}
	_ = os.Remove(p.stderrPath) // clean exit: the log holds nothing worth keeping
	return nil
}

// Alive reports whether a process with this pid still exists — the leak
// check after a run.
func Alive(pid int) bool {
	return syscall.Kill(pid, 0) == nil
}

// CPUSeconds reads utime+stime of pid from /proc/<pid>/stat.
func CPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, fmt.Errorf("harness: %w", err)
	}
	return parseStatCPU(raw)
}

// PeakRSSBytes reads VmHWM of pid from /proc/<pid>/status.
func PeakRSSBytes(pid int) (int64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, fmt.Errorf("harness: %w", err)
	}
	return parseStatusHWM(raw)
}

// NewClient returns an HTTP client limited to conns connections per host,
// all kept alive, so a run's connection count is the number stated.
func NewClient(conns int) *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}
}
