package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// server is one running `sketchd serve` process.
type server struct {
	cmd     *exec.Cmd
	started time.Time
	addr    string
	admin   string
	// listening is when the "coordinator listening" line arrived.
	listening time.Time

	mu    sync.Mutex
	lines []string // stderr log lines, guarded by mu
	done  chan struct{}
}

// serverArgs is the sketchd command line for one workload.
func serverArgs(cfg config, walDir string) []string {
	args := []string{"serve", "-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0",
		"-copies", strconv.Itoa(copies), "-s", strconv.Itoa(secondLevel),
		"-wise", strconv.Itoa(firstWise), "-seed", strconv.Itoa(coinSeed),
		"-log-level", "info"}
	if walDir != "" {
		args = append(args, "-wal-dir", walDir)
	}
	if cfg.trace {
		args = append(args, "-mutex-profile-fraction", "5")
	}
	return args
}

// startServer execs sketchd and waits until both listeners are up.
func startServer(cfg config, args []string) (*server, error) {
	cmd := exec.Command(cfg.sketchd, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	ready := make(chan struct{})
	s.started = time.Now()
	if err := startPinned(cmd, cfg.serverCPU); err != nil {
		return nil, fmt.Errorf("start sketchd: %w", err)
	}
	go s.readLog(stderr, ready)
	select {
	case <-ready:
	case <-s.done:
		cmd.Wait()
		return nil, fmt.Errorf("sketchd exited during start-up:\n%s", s.log())
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("sketchd did not start within 60s:\n%s", s.log())
	}
	return s, nil
}

// readLog collects stderr lines and closes ready once both listen
// addresses are known; done closes when stderr ends.
func (s *server) readLog(r io.Reader, ready chan struct{}) {
	defer close(s.done)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		now := time.Now()
		s.mu.Lock()
		s.lines = append(s.lines, line)
		if strings.Contains(line, `msg="coordinator listening"`) {
			s.addr = logField(line, "addr")
			s.listening = now
		}
		if strings.Contains(line, `msg="admin endpoint listening"`) {
			s.admin = logField(line, "addr")
		}
		up := s.addr != "" && s.admin != ""
		s.mu.Unlock()
		if up && !signalled {
			signalled = true
			close(ready)
		}
	}
}

func (s *server) log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.lines, "\n")
}

// logField extracts key=value from a logfmt line.
func logField(line, key string) string {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// findLogField returns key's value on the first log line containing msg.
func (s *server) findLogField(msg, key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.lines {
		if strings.Contains(l, msg) {
			return logField(l, key)
		}
	}
	return ""
}

// kill sends SIGKILL and waits for the process and its log reader.
func (s *server) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
	<-s.done
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// metricsSnap is one /metrics?format=json scrape.
type metricsSnap map[string]json.RawMessage

type histSnap struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets map[string]uint64 `json:"buckets"`
}

var httpClient = &http.Client{Timeout: 10 * time.Second}

func (s *server) get(path string) ([]byte, error) {
	resp, err := httpClient.Get("http://" + s.admin + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

func (s *server) scrapeMetrics() (metricsSnap, error) {
	body, err := s.get("/metrics?format=json")
	if err != nil {
		return nil, err
	}
	var m metricsSnap
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return m, nil
}

// scalar reads a counter or gauge; absent series read 0.
func (m metricsSnap) scalar(name string) float64 {
	var v float64
	if raw, ok := m[name]; ok {
		json.Unmarshal(raw, &v) // histograms and absent series read 0
	}
	return v
}

func (m metricsSnap) hist(name string) histSnap {
	var h histSnap
	if raw, ok := m[name]; ok {
		json.Unmarshal(raw, &h) // scalars and absent series read empty
	}
	return h
}

// mutexDelaySeconds sums the contention delay in /debug/pprof/mutex.
func (s *server) mutexDelaySeconds() (float64, error) {
	body, err := s.get("/debug/pprof/mutex?debug=1")
	if err != nil {
		return 0, err
	}
	var cps, cycles float64
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "cycles/second="); ok {
			cps, _ = strconv.ParseFloat(v, 64)
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 3 && f[2] == "@" {
			c, err := strconv.ParseFloat(f[0], 64)
			if err == nil {
				cycles += c
			}
		}
	}
	if cps == 0 {
		return 0, fmt.Errorf("mutex profile has no cycles/second header")
	}
	return cycles / cps, nil
}

// procSnap is the server's CPU time and peak memory from /proc.
type procSnap struct {
	at     time.Time
	cpuSec float64 // utime + stime
	hwmKB  float64 // VmHWM
}

func readProc(pid int) (procSnap, error) {
	p := procSnap{at: time.Now()}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return p, err
	}
	// Fields after the parenthesised command: state is field 3, utime
	// and stime are fields 14 and 15 (1-based), in clock ticks.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return p, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return p, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	p.cpuSec = (ut + st) / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return p, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			p.hwmKB, _ = strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		}
	}
	return p, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; Linux
// fixes it at 100 on every architecture this benchmark runs on.
const clockTicks = 100
