package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// goldenPath is the committed seed-1 `experiment all` output, read only.
const goldenPath = "internal/integration/testdata/experiment_all_seed1.golden"

// evalSeeds is how many study seeds an evaluation run cycles through:
// seed 1, whose output is checked against the golden, plus seeds drawn from
// the workload seed. Costs differ by seed; several seeds per run average
// that out.
const evalSeeds = 6

// runEvaluation is the researcher's path: a closed loop with one caller
// regenerating the full evaluation (`experiment all`) through
// service.RunSpec, alternating workers=1 and workers=nproc, for study seeds
// whose populations are built during set-up.
func runEvaluation(cfg config, rep *report) (*outcome, error) {
	out := newOutcome()
	rep.Loop = "closed"
	rep.Connections = 1
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.seed))
	seeds := append([]int64{1}, seedsFrom(r, evalSeeds-1, map[int64]bool{1: true})...)

	// Set-up: one population per study seed; setup_s is the median build's
	// CPU time.
	var setups []float64
	for _, seed := range seeds {
		c0 := cpuTime()
		if _, err := core.New(seed); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
	}
	out.set("setup_s", "s", median(setups))

	// The traced run interleaves observed regenerations (a sim-time obs
	// registry attached) with plain ones, so the instrumentation's overhead
	// is measured on the same seeds in the same run.
	type mode struct {
		workers  int
		observed bool
	}
	modes := []mode{{1, false}, {cfg.nproc, false}}
	if cfg.trace {
		modes = append(modes, mode{1, true}, mode{cfg.nproc, true})
	}
	times := map[mode][]float64{}
	used := map[mode]usage{}
	first := map[int64][]byte{}
	var rt *rtSampler
	if cfg.trace {
		rt = startRuntimeSampler()
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; i%len(modes) != 0 || time.Now().Before(deadline); i++ {
		seed := seeds[(i/len(modes))%len(seeds)]
		m := modes[i%len(modes)]
		spec := core.SpecFromOptions(seed, core.WithWorkers(m.workers))
		spec.Run = core.Command{Verb: "experiment", Name: "all"}
		var opts service.RunOptions
		if m.observed {
			opts.Extra = []core.Option{core.WithObserver(obs.NewMetricsOnly())}
		}
		out.attempted++
		u0, t0 := readUsage(), time.Now()
		res, err := service.RunSpec(spec, opts)
		elapsed, spent := time.Since(t0), readUsage().sub(u0)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "perfbench: experiment all seed %d: %v\n", seed, err)
			out.fail("error")
			continue
		case res.Exit != service.ExitClean:
			out.fail("exit")
			continue
		}
		got := []byte(res.Output)
		if seed == 1 && !bytes.Equal(got, golden) {
			out.fail("golden")
			continue
		}
		if prev, ok := first[seed]; ok && !bytes.Equal(prev, got) {
			// Outputs must be byte-identical at every worker count.
			out.fail("workers")
			continue
		}
		first[seed] = got
		times[m] = append(times[m], elapsed.Seconds()*1000)
		used[m] = usage{CPU: used[m].CPU + spent.CPU, AllocBytes: used[m].AllocBytes + spent.AllocBytes}
	}
	var runtimeStats rtStats
	if rt != nil {
		runtimeStats = rt.finish()
	}

	// perOp is the mean CPU time (ms) and heap allocation (MB) of a
	// regeneration in the given modes.
	perOp := func(ms ...mode) (cpuMs, allocMB float64) {
		var total usage
		n := 0
		for _, m := range ms {
			total = usage{CPU: total.CPU + used[m].CPU, AllocBytes: total.AllocBytes + used[m].AllocBytes}
			n += len(times[m])
		}
		return total.CPU.Seconds() * 1000 / float64(max(n, 1)), float64(total.AllocBytes) / (1 << 20) / float64(max(n, 1))
	}
	seq, par := times[modes[0]], times[modes[1]]
	cpuMs, allocMB := perOp(modes[0], modes[1])
	out.set("alloc_mb_per_op", "MB", allocMB)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	out.set("peak_rss_mb", "MB", rss)
	rep.Issue = map[string]metric{
		"cpu_ms_per_op": {Value: cpuMs, Unit: "ms"},
		"eval_seq_s":    {Value: median(seq) / 1000, Unit: "s"},
		"eval_par_s":    {Value: median(par) / 1000, Unit: "s"},
	}
	if !cfg.trace {
		return out, nil
	}

	// Per-layer replays, outside the timed loop. A traced run reports the
	// per-layer metrics in place of the end-to-end ones.
	out.metrics = map[string]metric{}
	l := newLayerRun()
	for _, seed := range seeds {
		root := l.sp.begin(0, "evaluation")
		err := l.replayEvaluation(root, seed)
		if err == nil {
			err = l.replayGrid(root, seed, false)
		}
		if err == nil {
			err = l.replayGenerate(root, seed)
		}
		l.sp.end(root)
		if err != nil {
			return nil, err
		}
	}
	l.finish(out)
	runtimeStats.report(out)
	if p := median(par); p > 0 {
		// Base: core.par_workers, the ideal speed-up.
		out.set("core.par_efficiency", "ratio", median(seq)/p/float64(cfg.nproc))
	}
	out.set("core.par_workers", "count", float64(cfg.nproc))
	// Base: trace.untraced_ms, the CPU time of a plain regeneration.
	observedMs, _ := perOp(modes[2], modes[3])
	out.set("trace.untraced_ms", "ms", cpuMs)
	out.set("trace.overhead_frac", "ratio", observedMs/cpuMs-1)
	rep.SpansFile = filepath.Join(cfg.work, "spans.json")
	return out, l.sp.write(rep.SpansFile)
}
