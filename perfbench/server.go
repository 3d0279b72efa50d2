package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one `scg serve` process on an ephemeral loopback port.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stdout chan struct{} // closed once the server's stdout hits EOF
	stderr bytes.Buffer
}

// startServer execs `scg serve` at its defaults plus the workload's
// network and an ephemeral loopback address, and returns once the
// server has printed its listen address.
func startServer(bin string, w workload) (*server, error) {
	s := &server{stdout: make(chan struct{})}
	s.cmd = exec.Command(bin, "serve",
		"-family", w.family.String(), "-l", strconv.Itoa(w.l), "-n", strconv.Itoa(w.n),
		"-addr", "127.0.0.1:0")
	s.cmd.Stderr = &s.stderr
	// The server must not outlive the benchmark, even if the benchmark
	// is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.stdout)
		sc := bufio.NewScanner(out)
		const marker = "listening on http://"
		for sc.Scan() {
			if i := strings.Index(sc.Text(), marker); i >= 0 {
				select {
				case addrc <- strings.TrimSpace(sc.Text()[i+len(marker):]):
				default: // only the first address counts
				}
			}
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case s.addr = <-addrc:
		return s, nil
	case <-s.stdout:
	case <-time.After(60 * time.Second):
	}
	s.stop()
	return nil, fmt.Errorf("scg serve printed no listen address: %s", strings.TrimSpace(s.stderr.String()))
}

// stop asks the server to drain (SIGTERM), kills it if it has not
// exited within ten seconds, and waits for it.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	t := time.AfterFunc(10*time.Second, func() { s.cmd.Process.Kill() })
	<-s.stdout
	s.cmd.Wait()
	t.Stop()
}

// procStatus returns one field of /proc/<pid>/status.
func procStatus(pid int, field string) (string, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("/proc/%d/status has no %s", pid, field)
}

// peakRSSMiB is the server's VmHWM: the most resident memory it has
// held so far.
func (s *server) peakRSSMiB() (float64, error) {
	v, err := procStatus(s.cmd.Process.Pid, "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// cpuTicks are the host's total and stolen CPU ticks from /proc/stat.
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() cpuTicks {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		t.total += n
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			t.steal = n
		}
	}
	return t
}

// stealPct is the share of CPU time stolen between since and t.
func (t cpuTicks) stealPct(since cpuTicks) float64 {
	if t.total <= since.total {
		return 0
	}
	return 100 * float64(t.steal-since.steal) / float64(t.total-since.total)
}
