// Command perfbench is setsketch's outside-in benchmark. It starts the
// real `sketchd serve` binary, drives it over TCP from this single load
// process, checks every answer against an in-process core reference,
// and prints one JSON line of metrics. Per-layer numbers come from the
// server's /metrics, /debug/pprof/mutex and /proc, plus a traced
// in-process replay of the same seeded batches (-trace 1).
//
// Run it from the repository root through perfbench/run.sh, which
// builds sketchd and this command and pins server and client to
// different CPUs:
//
//	bash perfbench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
//
// README.md in this directory describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// The sketch shape every workload runs at: the paper's r=128 copies of
// s=32 second-level functions, 8-wise first-level hashing.
const (
	copies      = 128
	secondLevel = 32
	firstWise   = 8
	coinSeed    = 1

	batchSize   = 256
	deleteRatio = 0.1
	eps         = 0.1

	warmup        = time.Second
	setupRepeats  = 24   // server starts per run; setup_s is their median
	ringBatches   = 1024 // batches pregenerated per session
	queryRounds   = 1250 // quiescent query-list rounds after the window
	lagRounds     = 150  // quiescent watch rounds after the window
	probeBatches  = 200  // batches a recovery probe logs before kill -9
	probeRestarts = 5    // kill -9 and restart cycles of a recovery probe

	writerOnlySeconds = 4 // query-mix trace runs: the writer without queries

	// writerRate is query-mix's open-loop writer rate in updates/s:
	// about a third of what one closed-loop hot session sustains on the
	// reference host, so the writer alone leaves the server CPU mostly
	// idle for the queries beside it.
	writerRate = 20000
	// queryRate is query-mix's open-loop query rate in queries/s. With
	// both rates fixed the server is not saturated, so its CPU per
	// update follows the cost of the queries beside the writes.
	queryRate = 200
)

// queryList is the fixed rotating list of ad-hoc queries; every
// workload's streams include A..D.
var queryList = []string{"A | B", "A & B", "(A - B) & C", "(A | B | C) - D"}

// workload is one traffic mix: sessions each forwarding their own
// seeded batch ring.
type workload struct {
	name    string
	streams []string
	support int
	theta   float64
	// sessions is the number of closed-loop writer sessions; 0 means one
	// open-loop writer at writerRate with an open-loop query connection
	// at queryRate beside it.
	sessions int
	wal      bool // -wal-dir with the default -fsync always
}

// queryMix reports whether w runs the open-loop writer beside queries.
func (w workload) queryMix() bool { return w.sessions == 0 }

func (w workload) writers() int { return max(w.sessions, 1) }

func letters(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('A' + i))
	}
	return out
}

var workloads = []workload{
	{name: "hot", streams: letters(4), support: 1 << 14, theta: 1.0, sessions: 2},
	{name: "cold-durable", streams: letters(16), support: 1 << 22, theta: 0, sessions: 2, wal: true},
	{name: "query-mix", streams: letters(4), support: 1 << 14, theta: 1.0},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is the parsed command line.
type config struct {
	w         workload
	seed      uint64
	seconds   int
	trace     bool
	sketchd   string
	work      string
	serverCPU int
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload: hot, cold-durable or query-mix")
		seed      = fs.Uint64("seed", 1, "workload seed")
		seconds   = fs.Int("seconds", 10, "length of the timed window")
		trace     = fs.Int("trace", 0, "1 reports per-layer metrics (mutex profile + traced replay); 0 end-to-end metrics")
		sketchd   = fs.String("sketchd", "", "sketchd binary to benchmark")
		work      = fs.String("work", ".bench_build/run", "directory for WAL and other run files (emptied per run)")
		serverCPU = fs.Int("server-cpu", -1, "pin sketchd to this CPU (-1 = no pinning)")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return config{}, err
	}
	if *seconds < 1 {
		return config{}, fmt.Errorf("--seconds %d < 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1")
	}
	if *sketchd == "" {
		return config{}, fmt.Errorf("--sketchd is required")
	}
	if _, err := os.Stat(*sketchd); err != nil {
		return config{}, err
	}
	return config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		sketchd: *sketchd, work: *work, serverCPU: *serverCPU}, nil
}

// run executes one benchmark pass and assembles its result.
func run(cfg config) (result, error) {
	if err := os.RemoveAll(cfg.work); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(cfg.work)
	work, err := filepath.Abs(cfg.work)
	if err != nil {
		return result{}, err
	}
	cfg.work = work
	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d, %ds window, trace %v, load cpus %s\n",
		cfg.w.name, cfg.seed, cfg.seconds, cfg.trace, cpusAllowed("self"))

	// The load process allocates little while timing (zero-alloc batch
	// frames; a few KB per query), so a lazy collector keeps its pauses
	// out of the latencies; quiet() collects before each timed phase.
	debug.SetGCPercent(400)
	rings, err := makeRings(cfg.w, cfg.seed)
	if err != nil {
		return result{}, err
	}
	obsv, err := drive(cfg, rings)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: obsv.failed == 0, Attempted: obsv.attempted, Failed: obsv.failed}
	for _, f := range obsv.failures {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", f)
	}
	if cfg.trace {
		tr, err := tracedReplay(cfg, rings)
		if err != nil {
			return result{}, err
		}
		res.Metrics = layerMetrics(rings, obsv, tr)
	} else {
		all := endToEndMetrics(obsv)
		printTable(obsv, all)
		res.Metrics = make(map[string]metric, len(gated))
		for _, n := range gated {
			res.Metrics[n] = all[n]
		}
	}
	return res, nil
}

// gated are the end-to-end metrics the result line carries, each with a
// regression bound in BENCHMARK.json. The rest go to the table only:
// between runs on the reference host they spread by more than the
// largest bound allowed (README.md).
var gated = []string{"updates_per_s", "ack_p50_us", "cpu_us_per_update", "rss_mb", "setup_s"}

// printTable writes every end-to-end metric, and the error rate the
// result line carries as attempted/failed, to standard error.
func printTable(o *observed, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-24s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	rate := 0.0
	if o.attempted > 0 {
		rate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(os.Stderr, "  %-24s %14.4f %s (%d of %d operations)\n", "error_rate", rate, "ratio", o.failed, o.attempted)
}
