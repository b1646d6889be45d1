// Command perfbench is the reproduction's benchmark. It regenerates the
// paper's full evaluation in-process and drives the partitiond service over
// loopback HTTP, checks every output byte for byte, and prints one JSON
// result line.
//
//	perfbench --workload evaluation|jobs-fresh|jobs-cached --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload again with host-time spans around calls into each layer and
// reports the per-layer metrics (see README.md). `perfbench daemon` is the
// daemon host the jobs workloads start as a child process.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is printed on the line before the result: the host, the load the
// run offered, how each tail metric was taken, and anything a reader of the
// numbers must know.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`

	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`

	Loop           string  `json:"loop"`
	OfferedPerS    float64 `json:"offered_per_s,omitempty"`
	Connections    int     `json:"connections"`
	LateP99Ms      float64 `json:"loadgen_late_p99_ms"`
	LateMaxMs      float64 `json:"loadgen_late_max_ms"`
	BehindSchedule bool    `json:"behind_schedule"`

	// Issue holds the workload's latency, throughput and failure figures
	// under their planned names. Wall-clock figures move with the host's
	// CPU steal, so they are reported here rather than bounded.
	Issue     map[string]metric   `json:"issue_metrics"`
	Tails     map[string]tailInfo `json:"tails,omitempty"`
	FailedBy  map[string]int      `json:"failed_by,omitempty"`
	Notes     []string            `json:"notes,omitempty"`
	SpansFile string              `json:"spans_file,omitempty"`
}

// tailInfo records how a *_tail metric was taken.
type tailInfo struct {
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	// Max is true when the run had too few samples for a percentile with
	// ten beyond it, and the value is the maximum.
	Max bool `json:"max,omitempty"`
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	nproc    int
	// work is the directory, inside the checkout, for state directories,
	// span files and daemon statistics of this run.
	work string
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted int
	failedBy  map[string]int
	metrics   map[string]metric
}

func newOutcome() *outcome {
	return &outcome{failedBy: map[string]int{}, metrics: map[string]metric{}}
}

func (o *outcome) fail(reason string) { o.failedBy[reason]++ }

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

func (o *outcome) failed() int {
	n := 0
	for _, c := range o.failedBy {
		n += c
	}
	return n
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "daemon" {
		if err := daemonMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench daemon:", err)
			os.Exit(1)
		}
		return
	}
	err := benchMain(os.Args[1:])
	killChildren()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "evaluation, jobs-fresh or jobs-cached")
	seed := fs.Int64("seed", 1, "workload seed: every input of the run is drawn from it")
	seconds := fs.Int("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	// The golden file doubles as the check that we run from a checkout root.
	if _, err := os.Stat(goldenPath); err != nil {
		return fmt.Errorf("run from the root of a checkout: %w", err)
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return fmt.Errorf("make work dir (run from the root of a checkout): %w", err)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		nproc:    runtime.NumCPU(),
		work:     work,
	}
	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NProc: cfg.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	var out *outcome
	switch cfg.workload {
	case "evaluation":
		out, err = runEvaluation(cfg, rep)
	case "jobs-fresh", "jobs-cached":
		out, err = runJobs(cfg, rep)
	default:
		return fmt.Errorf("unknown --workload %q (evaluation, jobs-fresh, jobs-cached)", cfg.workload)
	}
	if err != nil {
		return err
	}
	if !cfg.trace {
		// Spans and daemon statistics are kept only from traced runs.
		if err := os.RemoveAll(work); err != nil {
			return err
		}
	}
	rep.FailedBy = out.failedBy
	if rep.Issue == nil {
		rep.Issue = map[string]metric{}
	}
	rep.Issue["failed_frac"] = metric{Value: float64(out.failed()) / float64(max(out.attempted, 1)), Unit: "ratio"}
	if rep.BehindSchedule {
		fmt.Fprintln(os.Stderr, "perfbench: the load generator fell behind schedule; latencies of this run are not steady-state")
	}
	res := result{
		Correct:   out.failed() == 0,
		Attempted: out.attempted,
		Failed:    out.failed(),
		Metrics:   out.metrics,
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// seedsFrom draws n distinct study seeds from the workload seed, avoiding
// every seed in exclude.
func seedsFrom(r *rand.Rand, n int, exclude map[int64]bool) []int64 {
	var seeds []int64
	for len(seeds) < n {
		s := 2 + r.Int63n(1<<30)
		if exclude[s] {
			continue
		}
		exclude[s] = true
		seeds = append(seeds, s)
	}
	return seeds
}

// peakRSSMB reads the peak resident set size (VmHWM) of a process.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
