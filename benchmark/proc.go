package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"rtecgen/internal/clock"
)

// killGrace is how long a child gets between SIGTERM and SIGKILL.
const killGrace = 5 * time.Second

// usage is what the kernel charged a finished child.
type usage struct {
	cpu   time.Duration // user + system
	rssMB float64       // peak resident set
}

// usageOf reads a finished child's rusage. Its ru_maxrss has a floor: the
// child shares the benchmark's address space from fork to exec, and the
// kernel folds that space's high-water mark into the child's own, so a
// child smaller than the benchmark reports the benchmark's peak. That is
// harmless for `experiments` (42 MB against the benchmark's ~15 MB while it
// runs figures) and wrong for rtecd (15–25 MB either side), whose peak
// daemon.stop therefore reads from /proc while the process is still alive.
func usageOf(ps *os.ProcessState) usage {
	u := usage{cpu: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return u
}

// liveRSSMB is a running process's resident-set high-water mark (VmHWM, which
// exec resets: the process's own), or 0 when it cannot be read.
func liveRSSMB(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	return parseVmHWM(string(raw))
}

func parseVmHWM(status string) float64 {
	for _, line := range strings.Split(status, "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			fmt.Sscan(v, &kib) //nolint:errcheck // 0 when malformed
			return kib / 1024
		}
	}
	return 0
}

// command builds a child that is sent SIGTERM when ctx ends and SIGKILL
// killGrace later, so a cancelled or timed-out pass leaves nothing behind.
func command(ctx context.Context, bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = killGrace
	return cmd
}

// runTool runs one of the built binaries to completion and returns its
// standard output and resource usage; a failure carries its stderr.
func runTool(ctx context.Context, bin string, args ...string) ([]byte, usage, error) {
	cmd := command(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, usage{}, fmt.Errorf("%s %s: %w\n%s", bin, strings.Join(args, " "), err, stderr.Bytes())
	}
	return stdout.Bytes(), usageOf(cmd.ProcessState), nil
}

// daemon is a running rtecd child.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	ready   time.Duration // process start → first /healthz 200
	cost    usage         // set by stop
	stderr  *syncBuffer
	drained chan struct{} // closed once stderr hit EOF
}

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon launches rtecd, learns the port it bound from its stderr and
// polls /healthz until it answers 200. On any failure the child is stopped
// before the error is returned.
func startDaemon(ctx context.Context, clk clock.Clock, bin string, args ...string) (*daemon, error) {
	cmd := command(ctx, bin, args...)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stderr: &syncBuffer{}, drained: make(chan struct{})}
	t0 := clk.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.drained)
		br := bufio.NewReader(pipe)
		for {
			line, err := br.ReadString('\n')
			io.WriteString(d.stderr, line) //nolint:errcheck // in-memory
			if a, ok := strings.CutPrefix(strings.TrimSpace(line), "rtecd: listening on "); ok {
				select {
				case addrCh <- a:
				default:
				}
			}
			if err != nil {
				return
			}
		}
	}()
	fail := func(err error) (*daemon, error) {
		d.stop() //nolint:errcheck // the start failure is the error to report
		return nil, fmt.Errorf("rtecd: %w\n%s", err, d.stderr.String())
	}
	select {
	case d.addr = <-addrCh:
	case <-d.drained:
		return fail(fmt.Errorf("exited before listening"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections() // the load generator's two connections are the only ones left open
	hc := &http.Client{Transport: tr}
	for {
		resp, err := hc.Get("http://" + d.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if ctx.Err() != nil {
			return fail(ctx.Err())
		}
		clk.Sleep(time.Millisecond)
	}
	d.ready = clk.Now().Sub(t0)
	return d, nil
}

// stop drains the daemon with SIGTERM, waits for it (SIGKILL after
// killGrace) and returns what it cost: CPU time to exit, resident-set peak
// up to the signal (see usageOf). Safe to call twice.
func (d *daemon) stop() (usage, error) {
	if d.cmd.ProcessState != nil {
		return d.cost, nil
	}
	rss := liveRSSMB(d.cmd.Process.Pid)
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	timer := time.AfterFunc(killGrace, func() { d.cmd.Process.Kill() })
	<-d.drained // Wait closes the pipe; read it out first
	err := d.cmd.Wait()
	timer.Stop()
	if err != nil {
		return usage{}, fmt.Errorf("rtecd: %w\n%s", err, d.stderr.String())
	}
	d.cost = usageOf(d.cmd.ProcessState)
	if rss > 0 {
		d.cost.rssMB = rss
	}
	return d.cost, nil
}
