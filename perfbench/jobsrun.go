package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// freshSchedule lays the jobs-fresh mix out at freshRate. Warm jobs take
// their seed from the pool, rotating so every spec is new to the daemon;
// every coldEvery-th job takes a never-seen seed.
func freshSchedule(r *rand.Rand, pool []int64, seconds int) ([]jobOp, error) {
	exclude := map[int64]bool{1: true}
	for _, s := range pool {
		exclude[s] = true
	}
	n := max(1, int(math.Round(freshRate*float64(seconds))))
	uses, first := map[kind]int{}, map[kind]int{}
	seen := map[string]bool{}
	var ops []jobOp
	for i := 0; i < n; i++ {
		k := freshMix[i%len(freshMix)]
		seed, class := int64(0), "warm"
		if i%coldEvery == coldEvery-1 {
			seed, class = seedsFrom(r, 1, exclude)[0], "cold"
		} else {
			// Each kind's next pool seed, starting where the kind first
			// appears so the kinds spread over the pool.
			if _, ok := first[k]; !ok {
				first[k] = i
			}
			seed = pool[(uses[k]+first[k])%len(pool)]
			uses[k]++
		}
		op, err := newOp(k.spec(seed), time.Duration(float64(i)/freshRate*1e9), class)
		if err != nil {
			return nil, err
		}
		if seen[op.id] {
			return nil, fmt.Errorf("jobs-fresh: %d seconds repeat a spec; the warm pool is too small", seconds)
		}
		seen[op.id] = true
		ops = append(ops, op)
	}
	return ops, nil
}

// cachedSchedule returns the jobs-cached working set and the schedule at
// cachedRate: Zipf-distributed re-submissions of the working set (s=1.1,
// v=8, so the hottest spec draws about 5% of them), and every
// writeEvery-th request a never-seen spec.
func cachedSchedule(r *rand.Rand, pool []int64, seconds int) (working, ops []jobOp, err error) {
	for _, k := range cachedKinds {
		for _, seed := range pool {
			for _, budget := range []int{0, 500} {
				k.stepBudget = budget
				op, err := newOp(k.spec(seed), 0, "prefill")
				if err != nil {
					return nil, nil, err
				}
				working = append(working, op)
			}
		}
	}
	perm := r.Perm(len(working))
	zipf := rand.NewZipf(r, 1.1, 8, uint64(len(working)-1))
	n := max(writeEvery, int(math.Round(cachedRate*float64(seconds))))
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / cachedRate * 1e9)
		if i%writeEvery != writeEvery-1 {
			op := working[perm[zipf.Uint64()]]
			op.due, op.class = due, "hit"
			ops = append(ops, op)
			continue
		}
		w := i / writeEvery
		k := writeKinds[w%len(writeKinds)]
		k.stepBudget = 1000 + w
		op, err := newOp(k.spec(pool[(w/len(writeKinds))%len(pool)]), due, "write")
		if err != nil {
			return nil, nil, err
		}
		ops = append(ops, op)
	}
	return working, ops, nil
}

// submitAll runs ops to completion with at most conns in flight, as set-up
// does, and returns each op's output.
func submitAll(c *client, ops []jobOp, conns int) ([][]byte, error) {
	outs := make([][]byte, len(ops))
	errs := make([]error, len(ops))
	sem := make(chan struct{}, conns)
	var wg sync.WaitGroup
	for i := range ops {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			res := c.run(ops[i], time.Now())
			outs[i], errs[i] = res.output, res.err
			if res.err == nil && res.status == service.SubmitRefused {
				errs[i] = fmt.Errorf("set-up job %s refused", ops[i].id)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// warmOps builds one warm-up spec per pool seed.
func warmOps(pool []int64, budget int) ([]jobOp, error) {
	var ops []jobOp
	for _, seed := range pool {
		k := warmKind
		k.stepBudget = budget
		op, err := newOp(k.spec(seed), 0, "warm-up")
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// setUp starts the daemon a jobs run measures. jobs-fresh: a daemon over an
// empty state directory with the pool's populations built. jobs-cached: a
// daemon that persisted the working set, stopped, and a new daemon started
// over the same state directory with the pool's populations built again;
// it returns the working set's outputs as first served. It also returns
// the CPU time set-up took: this process's and every daemon host's.
func setUp(cfg config, tag string, pool []int64, working []jobOp, instrument bool) (*daemon, [][]byte, time.Duration, error) {
	start := cpuTime()
	dir := filepath.Join(cfg.work, tag)
	state := filepath.Join(dir, "state")
	if err := os.MkdirAll(state, 0o755); err != nil {
		return nil, nil, 0, err
	}
	warm, err := warmOps(pool, 1)
	if err != nil {
		return nil, nil, 0, err
	}
	d, err := startDaemon(state, filepath.Join(dir, "stats.json"), instrument && working == nil)
	if err != nil {
		return nil, nil, 0, err
	}
	// ready warms d's populations and adds its CPU time so far.
	var used time.Duration
	ready := func(d *daemon, warm []jobOp) error {
		c := newClient(d.addr, cfg.nproc)
		defer c.close()
		_, err := submitAll(c, warm, cfg.nproc)
		if err == nil {
			var u usage
			u, err = c.usage()
			used += u.CPU
		}
		return err
	}
	if working == nil {
		if err := ready(d, warm); err != nil {
			d.kill()
			return nil, nil, 0, err
		}
		return d, nil, used + cpuTime() - start, nil
	}
	c := newClient(d.addr, cfg.nproc)
	_, err = submitAll(c, warm, cfg.nproc)
	var prefill [][]byte
	if err == nil {
		prefill, err = submitAll(c, working, cfg.nproc)
	}
	c.close()
	if err != nil {
		d.kill()
		return nil, nil, 0, err
	}
	if _, err := d.stop(); err != nil {
		return nil, nil, 0, err
	}
	used += d.cpuUsed()
	d, err = startDaemon(state, filepath.Join(dir, "stats-restarted.json"), instrument)
	if err != nil {
		return nil, nil, 0, err
	}
	if warm, err = warmOps(pool, 2); err == nil {
		err = ready(d, warm)
	}
	if err != nil {
		d.kill()
		return nil, nil, 0, err
	}
	return d, prefill, used + cpuTime() - start, nil
}

// references runs every distinct spec once in-process through
// service.RunSpec, untimed, on nproc workers: the bytes every daemon result
// must equal.
func references(ops []jobOp, workers int) (map[string][]byte, error) {
	var distinct []jobOp
	refs := map[string][]byte{}
	for _, op := range ops {
		if _, ok := refs[op.id]; !ok {
			refs[op.id] = nil
			distinct = append(distinct, op)
		}
	}
	outs := make([][]byte, len(distinct))
	errs := make([]error, len(distinct))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range distinct {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := service.RunSpec(distinct[i].spec, service.RunOptions{})
			if err == nil {
				outs[i] = []byte(res.Output)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, op := range distinct {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference %s: %w", op.spec.Run, errs[i])
		}
		refs[op.id] = outs[i]
	}
	return refs, nil
}

// phase is one measured window against one daemon.
type phase struct {
	results []opResult
	stats   daemonStats
	setups  []float64
	// prefill is the working set's outputs as first served (jobs-cached).
	prefill [][]byte
	// used is the daemon host's CPU time and allocation over the window,
	// until the last op completed.
	used usage
}

// perOp returns the daemon's CPU time (ms) and heap allocation (MB) per
// completed op.
func (ph phase) perOp(ops []jobOp) (cpuMs, allocMB float64) {
	_, _, completed, _ := latencies(ops, ph.results)
	n := float64(max(completed, 1))
	return ph.used.CPU.Seconds() * 1000 / n, float64(ph.used.AllocBytes) / (1 << 20) / n
}

// runJobs runs jobs-fresh or jobs-cached. The traced run measures the
// window twice, first against a plain daemon host and then against an
// instrumented one, so the instrumentation's overhead is measured on the
// same schedule; then it replays each op's layer calls in-process.
func runJobs(cfg config, rep *report) (*outcome, error) {
	out := newOutcome()
	cached := cfg.workload == "jobs-cached"
	r := rand.New(rand.NewSource(cfg.seed))
	pool := seedsFrom(r, poolSeeds, map[int64]bool{1: true})
	var working, ops []jobOp
	var err error
	rate := freshRate
	if cached {
		rate = cachedRate
		working, ops, err = cachedSchedule(r, pool, cfg.seconds)
	} else {
		ops, err = freshSchedule(r, pool, cfg.seconds)
	}
	if err != nil {
		return nil, err
	}
	rep.Loop, rep.OfferedPerS, rep.Connections = "open", rate, cfg.nproc
	if !cached {
		rep.Notes = append(rep.Notes, "known defect: core.populations memoizes every seed's population and never evicts it (about 3.3 MB per seed); the never-seen seeds of this workload show it in peak_rss_mb")
	}

	instrumented := []bool{false}
	if cfg.trace {
		instrumented = append(instrumented, true)
	}
	var phases []phase
	for p, instrument := range instrumented {
		var ph phase
		reps := setupReps
		if cfg.trace {
			reps = 1 // a traced run reports no set-up time
		}
		var d *daemon
		for i := 0; i < reps; i++ {
			if d != nil {
				if _, err := d.stop(); err != nil {
					return nil, err
				}
			}
			var used time.Duration
			d, ph.prefill, used, err = setUp(cfg, fmt.Sprintf("phase%d-setup%d", p, i), pool, working, instrument)
			if err != nil {
				return nil, err
			}
			ph.setups = append(ph.setups, used.Seconds())
		}
		c := newClient(d.addr, cfg.nproc)
		u0, err := c.usage()
		if err == nil {
			ph.results = drive(c, ops)
			var u1 usage
			u1, err = c.usage()
			ph.used = u1.sub(u0)
		}
		c.close()
		if err != nil {
			return nil, err
		}
		if ph.stats, err = d.stop(); err != nil {
			return nil, err
		}
		phases = append(phases, ph)
	}

	// Output checks, untimed: every daemon result against an in-process
	// RunSpec of the same spec, and every cache-served result against the
	// bytes the working set was first served with.
	refOps := ops
	if cached {
		refOps = append(append([]jobOp(nil), working...), ops...)
	}
	refs, err := references(refOps, cfg.nproc)
	if err != nil {
		return nil, err
	}
	for _, ph := range phases {
		expected := map[string][]byte{}
		for i, op := range working {
			expected[op.id] = ph.prefill[i]
			if !bytes.Equal(ph.prefill[i], refs[op.id]) {
				out.fail("prefill-bytes")
			}
		}
		for i, res := range ph.results {
			out.attempted++
			check(out, ops[i], res, refs, expected)
		}
	}

	first := phases[0]
	primary, secondary, completed, end := latencies(ops, first.results)
	out.set("setup_s", "s", median(first.setups))
	cpuMs, allocMB := first.perOp(ops)
	out.set("alloc_mb_per_op", "MB", allocMB)
	out.set("peak_rss_mb", "MB", first.stats.PeakRSSMB)
	v, pct, ok := tail(primary, 10)
	if cached {
		rep.Issue = map[string]metric{
			"cpu_ms_per_op": {Value: cpuMs, Unit: "ms"},
			"hit_p50_us":    {Value: median(primary) * 1000, Unit: "us"},
			"hit_tail_us":   {Value: v * 1000, Unit: "us"},
			"write_p50_ms":  {Value: median(secondary), Unit: "ms"},
		}
		rep.Tails = map[string]tailInfo{"hit_tail_us": {Percentile: pct, Samples: len(primary), Max: !ok}}
	} else {
		rep.Issue = map[string]metric{
			"cpu_ms_per_op": {Value: cpuMs, Unit: "ms"},
			"job_p50_ms":    {Value: median(primary), Unit: "ms"},
			"job_tail_ms":   {Value: v, Unit: "ms"},
			"jobs_per_s":    {Value: float64(completed) / end.Seconds(), Unit: "1/s"},
			"cold_p50_ms":   {Value: median(secondary), Unit: "ms"},
		}
		rep.Tails = map[string]tailInfo{"job_tail_ms": {Percentile: pct, Samples: len(primary), Max: !ok}}
	}
	var late []float64
	for _, res := range first.results {
		late = append(late, float64(res.late)/1e6)
	}
	rep.LateP99Ms, rep.LateMaxMs = quantile(late, 0.99), maxOf(late)
	// Behind schedule: a typical late send would delay the next one.
	rep.BehindSchedule = rep.LateP99Ms > 1000/rate/2
	if !cfg.trace {
		return out, nil
	}

	// A traced run reports the per-layer metrics in place of the end-to-end
	// ones.
	traced := phases[1]
	out.metrics = map[string]metric{}
	l := newLayerRun()
	if err := replayJobs(l, ops, pool); err != nil {
		return nil, err
	}
	l.finish(out)
	serviceLayers(out, ops, traced)
	traced.stats.Runtime.report(out)
	late = late[:0]
	for _, res := range traced.results {
		late = append(late, float64(res.late)/1e6)
	}
	out.set("loadgen.late_ms", "ms", quantile(late, 0.99))
	// Base: trace.untraced_ms, the plain daemon's CPU time per op.
	tracedMs, _ := traced.perOp(ops)
	out.set("trace.untraced_ms", "ms", cpuMs)
	out.set("trace.overhead_frac", "ratio", tracedMs/cpuMs-1)
	rep.SpansFile = filepath.Join(cfg.work, "spans.json")
	return out, l.sp.write(rep.SpansFile)
}

// check counts op's failures: errors, refusals, a spec the daemon did not
// treat as the workload expects, and wrong bytes.
func check(out *outcome, op jobOp, res opResult, refs, expected map[string][]byte) {
	switch {
	case res.err != nil:
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", op.spec.Run, res.err)
		out.fail("error")
	case res.status == service.SubmitRefused:
		out.fail("refused")
	case op.class == "hit":
		if res.status != service.SubmitCached && res.status != service.SubmitExists {
			out.fail("not-cached")
		} else if !bytes.Equal(res.output, expected[op.id]) {
			out.fail("cache-bytes")
		}
	case res.status != service.SubmitAccepted:
		out.fail("not-fresh")
	case !bytes.Equal(res.output, refs[op.id]):
		out.fail("bytes")
	}
}

// latencies splits successful ops' latencies (ms): jobs-fresh's primary
// class is every job and its secondary the never-seen-seed jobs;
// jobs-cached's primary is a cache-served request and its secondary a
// never-seen write. It also returns how many ops completed and when the
// last one did, from the start of the schedule.
func latencies(ops []jobOp, results []opResult) (primary, secondary []float64, completed int, end time.Duration) {
	for i, res := range results {
		if res.err != nil || res.status == service.SubmitRefused {
			continue
		}
		completed++
		end = max(end, ops[i].due+res.latency)
		lat := float64(res.latency) / 1e6
		switch ops[i].class {
		case "warm", "hit":
			primary = append(primary, lat)
		case "cold":
			primary = append(primary, lat)
			secondary = append(secondary, lat)
		case "write":
			secondary = append(secondary, lat)
		}
	}
	return primary, secondary, completed, end
}

// serviceLayers derives the service and checkpoint metrics of the traced
// window from the client's view and the instrumented host's statistics.
func serviceLayers(out *outcome, ops []jobOp, ph phase) {
	var disk, memory, refused int
	var rttUs []float64
	for _, res := range ph.results {
		switch res.status {
		case service.SubmitCached:
			disk++
		case service.SubmitExists:
			memory++
		case service.SubmitRefused:
			refused++
		}
		if res.rtt > 0 {
			rttUs = append(rttUs, float64(res.rtt)/1e3)
		}
	}
	st := ph.stats
	submitUs := median(st.HandlerUs["submit"])
	out.set("service.queue_wait_ms", "ms", median(st.QueueWaitMs))
	out.set("service.run_ms", "ms", median(st.RunMs))
	out.set("service.submit_us", "us", submitUs)
	out.set("service.result_us", "us", median(st.HandlerUs["result"]))
	// The loopback HTTP layer: a submit's round trip as the client saw it,
	// less the time the handler spent (difference of medians).
	out.set("service.http_us", "us", median(rttUs)-submitUs)
	out.set("service.hits_disk", "count", float64(disk))
	out.set("service.hits_memory", "count", float64(memory))
	out.set("service.submits", "count", float64(len(ops)))
	// Base: service.submits.
	out.set("service.hit_ratio", "ratio", float64(disk+memory)/float64(len(ops)))
	out.set("service.refused", "count", float64(refused))
	fs := st.FS
	out.set("service.fs.writes", "count", float64(fs.Writes))
	out.set("service.fs.syncs", "count", float64(fs.Syncs))
	out.set("service.fs.renames", "count", float64(fs.Renames))
	out.set("service.fs.bytes", "count", float64(fs.Bytes))
	if fs.Syncs > 0 {
		out.set("service.fs.sync_us", "us", float64(fs.SyncNs)/float64(fs.Syncs)/1e3)
	}
	out.set("checkpoint.appends", "count", float64(fs.CkptAppends))
	if fs.CkptAppends > 0 {
		out.set("checkpoint.append_us", "us", float64(fs.CkptNs)/float64(fs.CkptAppends)/1e3)
	}
}

// replayJobs replays, in-process and one at a time, the layer calls each op
// makes: the attack plan executor, the defense through RunSpec, one heal
// study grid trial on each engine; and for every study seed the run used,
// population generation and the routing table.
func replayJobs(l *layerRun, ops []jobOp, pool []int64) error {
	seeds := append([]int64(nil), pool...)
	seen := map[int64]bool{}
	for _, s := range pool {
		seen[s] = true
	}
	for _, op := range ops {
		if !seen[op.spec.Seed] {
			seen[op.spec.Seed] = true
			seeds = append(seeds, op.spec.Seed)
		}
		if op.class == "hit" {
			continue
		}
		root := l.sp.begin(0, "job")
		var err error
		switch spec := op.spec; {
		case spec.Run.Verb == "attack":
			err = l.replayAttack(root, spec)
		case spec.Run.Verb == "defend":
			_, err = l.observed(root, "defense."+spec.Run.Name, func(o *obs.Observer) error {
				_, err := service.RunSpec(spec, service.RunOptions{Extra: []core.Option{core.WithObserver(o)}})
				return err
			})
		case spec.Run.Name == "healstudy":
			err = l.replayGrid(root, spec.Seed, true)
		}
		l.sp.end(root)
		if err != nil {
			return fmt.Errorf("replay %s: %w", op.spec.Run, err)
		}
	}
	for _, seed := range seeds {
		root := l.sp.begin(0, "seed")
		err := l.replayGenerate(root, seed)
		l.sp.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}
