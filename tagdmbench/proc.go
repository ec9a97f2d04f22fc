package main

import (
	"bufio"
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
)

// serverProc is one tagdm-serve process started by the benchmark.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	done chan error
	log  *os.File
}

// bootTimeout bounds how long a server may take to answer /healthz.
const bootTimeout = 60 * time.Second

// startServer launches bin with args plus a free loopback -addr, waits
// until /healthz answers 200, and returns the process with the time from
// process start to ready. The server's stderr goes to logPath.
func startServer(bin string, args []string, logPath string) (*serverProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the kernel kills the
	// server rather than leaving it running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, base: "http://" + addr, done: make(chan error, 1), log: logf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() { p.done <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	for time.Since(start) < bootTimeout {
		select {
		case err := <-p.done:
			p.done <- err
			p.log.Close()
			return nil, 0, fmt.Errorf("server exited during boot (%v); see %s", err, logPath)
		default:
		}
		resp, err := client.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.kill()
	return nil, 0, fmt.Errorf("server not ready after %s; see %s", bootTimeout, logPath)
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// stop asks for a graceful shutdown (SIGTERM: drain, flush the WAL, write
// the final checkpoint) and waits for the process to exit, killing it if
// it has not within timeout. It reports a non-zero exit as an error.
func (p *serverProc) stop(timeout time.Duration) error {
	defer p.log.Close()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		p.cmd.Process.Kill()
	}
	select {
	case err := <-p.done:
		return err
	case <-time.After(timeout):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("server did not stop within %s", timeout)
	}
}

// kill stops the process without a graceful shutdown and waits for it.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.done
	p.log.Close()
}

// procCPU returns the user+system CPU time the process has used, read from
// /proc/<pid>/stat in clock ticks of 10ms (Linux USER_HZ).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// procHWM returns the process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
