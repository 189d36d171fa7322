package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one mdserver subprocess started with deployment flags only.
type server struct {
	cmd     *exec.Cmd
	base    string
	dataDir string
	log     *os.File
	stopped bool
}

// startServer launches bin for spec with its data under dir and its
// per-request log in logPath, and waits until /healthz answers.
func startServer(bin string, spec workloadSpec, dir, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{"-addr", addr}
	switch {
	case spec.shards > 0:
		args = append(args, "-shards", strconv.Itoa(spec.shards), "-shard-root", filepath.Join(dir, "shards"))
	case spec.durable:
		args = append(args, "-wal", filepath.Join(dir, "catalog.wal"))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr, dataDir: dir, log: logf}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even if it is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("mdserver did not become healthy (see %s)", logPath)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop sends SIGTERM (durable deployments write their final checkpoint)
// and waits for the process to exit, killing it after a grace period.
// Stopping a stopped server does nothing.
func (s *server) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return fmt.Errorf("mdserver did not stop on SIGTERM")
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTick = 10 * time.Millisecond

// procCPU returns the process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS returns the process's peak resident set (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
