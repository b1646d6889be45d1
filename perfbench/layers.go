package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gridsim"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/topology"
)

// perLayer lists every per-layer metric with its unit, in report order. A
// traced run reports all of them on every workload; a layer the workload
// does not exercise reads 0 (README.md maps each metric to the end-to-end
// metric and the workload it should move).
var perLayer = func() [][2]string {
	m := [][2]string{
		{"dataset.generate_ms", "ms"},
		{"dataset.trace_ms", "ms"},
		{"dataset.trace_node_blocks", "count"},
		{"dataset.trace_ns_per_node_block", "ns"},
	}
	for _, name := range core.ExperimentNames() {
		m = append(m, [2]string{"core." + name + "_ms", "ms"})
	}
	m = append(m, [][2]string{
		{"core.critical_ms", "ms"},
		{"core.par_efficiency", "ratio"},
		{"core.par_workers", "count"},
		{"topology.resolve_calls", "count"},
		{"topology.resolve_ns", "ns"},
		{"topology.routes", "count"},
		{"topology.announce_calls", "count"},
		{"topology.announce_ns", "ns"},
		{"gridsim.cell_steps", "count"},
		{"gridsim.cell_flips", "count"},
		{"gridsim.legacy.ns_per_cell_step", "ns"},
		{"gridsim.sharded.ns_per_cell_step", "ns"},
		{"netsim.msgs_sent", "count"},
		{"netsim.msgs_deduped", "count"},
		{"netsim.useful_msg_ratio", "ratio"},
		{"netsim.ns_per_msg", "ns"},
		{"netsim.busy_ms", "ms"},
	}...)
	for _, name := range attackNames {
		m = append(m, [2]string{"attack." + name + "_ms", "ms"})
	}
	for _, name := range defenseNames {
		m = append(m, [2]string{"defense." + name + "_ms", "ms"})
	}
	return append(m, [][2]string{
		{"service.queue_wait_ms", "ms"},
		{"service.run_ms", "ms"},
		{"service.submit_us", "us"},
		{"service.result_us", "us"},
		{"service.http_us", "us"},
		{"service.hits_disk", "count"},
		{"service.hits_memory", "count"},
		{"service.hit_ratio", "ratio"},
		{"service.submits", "count"},
		{"service.refused", "count"},
		{"service.fs.writes", "count"},
		{"service.fs.syncs", "count"},
		{"service.fs.renames", "count"},
		{"service.fs.bytes", "count"},
		{"service.fs.sync_us", "us"},
		{"checkpoint.appends", "count"},
		{"checkpoint.append_us", "us"},
		{"go.gc_pause_ms", "ms"},
		{"go.heap_peak_mb", "MB"},
		{"go.alloc_mb", "MB"},
		{"loadgen.late_ms", "ms"},
		{"trace.overhead_frac", "ratio"},
		{"trace.untraced_ms", "ms"},
	}...)
}()

var (
	attackNames  = []string{"spatial", "temporal", "spatiotemporal", "logical"}
	defenseNames = []string{"blockaware", "routeguard", "stratum", "placement"}
)

// layerRun accumulates a traced run: its spans and the deterministic work
// counts read from the sim-time obs registries and trace outputs.
type layerRun struct {
	sp     *spans
	counts map[string]float64
	// busy collects the durations of replays that drove the gossip
	// simulator (their registries counted p2p messages).
	busy time.Duration
	// gridNs and gridSteps split grid replay time and cell steps by engine.
	gridNs    map[string]time.Duration
	gridSteps map[string]float64
}

func newLayerRun() *layerRun {
	return &layerRun{
		sp:        newSpans(),
		counts:    map[string]float64{},
		gridNs:    map[string]time.Duration{},
		gridSteps: map[string]float64{},
	}
}

// observed runs fn with a fresh metrics-only observer inside span name and
// folds the registry's gossip and grid counters into the run's counts.
func (l *layerRun) observed(parent int, name string, fn func(o *obs.Observer) error) (int, error) {
	o := obs.NewMetricsOnly()
	id := l.sp.begin(parent, name)
	err := fn(o)
	d := l.sp.end(id)
	sent, deduped, flips := 0.0, 0.0, 0.0
	for _, c := range o.Registry().Snapshot().Counters {
		switch {
		case strings.HasPrefix(c.Name, "p2p.msgs_sent"):
			sent += float64(c.Value)
		case strings.HasPrefix(c.Name, "p2p.msgs_deduped"):
			deduped += float64(c.Value)
		case c.Name == "gridsim.cell_flips":
			flips += float64(c.Value)
		}
	}
	if sent > 0 {
		l.busy += d
	}
	l.counts["netsim.msgs_sent"] += sent
	l.counts["netsim.msgs_deduped"] += deduped
	l.counts["gridsim.cell_flips"] += flips
	return id, err
}

// traceConfigs are the lag-process runs each experiment makes, with the
// experiment's own TraceConfig (core derives each trace seed from the study
// seed and a per-experiment salt). Windows are the spec defaults.
func traceConfigs(name string, studySeed int64) []dataset.TraceConfig {
	cfg := func(d, every time.Duration, salt int64, trackAS bool) []dataset.TraceConfig {
		return []dataset.TraceConfig{{
			Duration: d, SampleEvery: every, Seed: studySeed*1000003 + salt, TrackSyncedByAS: trackAS,
		}}
	}
	const day = 24 * time.Hour
	switch name {
	case "table5":
		return cfg(3*day, 10*time.Minute, 5, false)
	case "table7":
		return cfg(day, 10*time.Minute, 7, true)
	case "figure6a":
		return cfg(3*day, 10*time.Minute, 61, false)
	case "figure6b":
		return cfg(day, 10*time.Minute, 62, false)
	case "figure6c":
		return cfg(3*time.Hour, time.Minute, 63, false)
	case "figure8":
		return cfg(day, 10*time.Minute, 8, true)
	}
	return nil
}

// replayEvaluation times each experiment of `experiment all` for one study
// seed through service.RunSpec at workers=1, with the dataset lag process
// each one runs replayed as its child.
func (l *layerRun) replayEvaluation(parent int, seed int64) error {
	study, err := core.New(seed)
	if err != nil {
		return err
	}
	upNodes := 0
	for _, n := range study.Pop.Nodes {
		if n.Up {
			upNodes++
		}
	}
	var critical time.Duration
	for _, name := range core.ExperimentNames() {
		spec := core.SpecFromOptions(seed, core.WithWorkers(1))
		spec.Run = core.Command{Verb: "experiment", Name: name}
		id, err := l.observed(parent, "core."+name, func(o *obs.Observer) error {
			_, err := service.RunSpec(spec, service.RunOptions{Extra: []core.Option{core.WithObserver(o)}})
			return err
		})
		if err != nil {
			return fmt.Errorf("experiment %s: %w", name, err)
		}
		total := l.sp.list[id-1].dur()
		for _, tc := range traceConfigs(name, seed) {
			var tr *dataset.Trace
			if err := l.sp.timed(id, "dataset.trace", func() error {
				tr, err = study.Pop.RunTrace(tc)
				return err
			}); err != nil {
				return err
			}
			l.counts["dataset.trace_node_blocks"] += float64(tr.Blocks * upNodes)
		}
		critical = max(critical, total)
	}
	l.counts["core.critical_ns"] += float64(critical)
	l.counts["core.evaluations"]++
	return nil
}

// gridConfig is the grid a spec's grid work runs: the heal-study trial for
// `experiment healstudy` (40 block intervals, heal at the midpoint, half an
// interval to settle) and the Figure 7 arc otherwise.
func gridConfig(healstudy bool) (opts []gridsim.Option, steps int) {
	const size, span = 25, 2.0
	perBlock := int(span * size)
	opts = []gridsim.Option{
		gridsim.WithSize(size), gridsim.WithSpanRatio(span),
		gridsim.WithFailureRate(0.10), gridsim.WithAttacker(0.30, 7, 7),
	}
	if healstudy {
		return append(opts, gridsim.WithBoundary(5, 0, perBlock*20)), perBlock*40 + perBlock/2
	}
	return append(opts, gridsim.WithBoundary(5, 0, 200)), 251
}

// replayGrid runs one grid world on each engine — the legacy engine and the
// sharded engine with one shard — and counts the cell steps each took.
func (l *layerRun) replayGrid(parent int, seed int64, healstudy bool) error {
	for _, engine := range []string{"legacy", "sharded"} {
		opts, steps := gridConfig(healstudy)
		if engine == "sharded" {
			opts = append(opts, gridsim.WithShards(1), gridsim.WithShardWorkers(1))
		}
		var g *gridsim.Grid
		id, err := l.observed(parent, "gridsim."+engine, func(o *obs.Observer) error {
			var err error
			g, err = gridsim.New(seed, append(opts, gridsim.WithObserver(o))...)
			if err != nil {
				return err
			}
			g.Advance(steps)
			return g.BudgetErr()
		})
		if err != nil {
			return err
		}
		cellSteps := float64(g.Step()) * float64(g.NumCells())
		l.counts["gridsim.cell_steps"] += cellSteps
		l.gridSteps[engine] += cellSteps
		l.gridNs[engine] += l.sp.list[id-1].dur()
	}
	return nil
}

// replayGenerate builds a private population for seed and times the routing
// table on it: Resolve over every node's IP, then Announce of an equally
// specific hijack route for every prefix of the fourteen largest ASes (the
// spatial attack's reach), withdrawn again afterwards.
func (l *layerRun) replayGenerate(parent int, seed int64) error {
	var pop *dataset.Population
	if err := l.sp.timed(parent, "dataset.generate", func() error {
		var err error
		pop, err = dataset.Generate(seed)
		return err
	}); err != nil {
		return err
	}
	rt := pop.Topo.Routes()
	l.counts["topology.routes"] += float64(rt.Len())
	l.counts["topology.route_tables"]++
	calls := 0
	l.sp.timed(parent, "topology.resolve", func() error {
		for _, n := range pop.Nodes {
			if n.IP != 0 {
				rt.Resolve(n.IP)
				calls++
			}
		}
		return nil
	})
	l.counts["topology.resolve_calls"] += float64(calls)

	rows := append([]dataset.ASRow(nil), pop.ASRows...)
	sort.SliceStable(rows, func(i, k int) bool { return rows[i].Nodes > rows[k].Nodes })
	var prefixes []topology.Prefix
	for _, row := range rows[:min(14, len(rows))] {
		if as, ok := pop.Topo.AS(row.ASN); ok {
			prefixes = append(prefixes, as.Prefixes...)
		}
	}
	const attacker topology.ASN = 666
	err := l.sp.timed(parent, "topology.announce", func() error {
		for _, p := range prefixes {
			if err := rt.Announce(p, attacker, true); err != nil {
				return err
			}
		}
		return nil
	})
	rt.WithdrawHijacks()
	l.counts["topology.announce_calls"] += float64(len(prefixes))
	return err
}

// replayAttack times the attack plan executor of an `attack` spec, built
// the way service.RunSpec builds it.
func (l *layerRun) replayAttack(parent int, spec core.Spec) error {
	_, err := l.observed(parent, "attack."+spec.Run.Name, func(o *obs.Observer) error {
		study, err := core.NewFromSpec(spec, core.WithObserver(o))
		if err != nil {
			return err
		}
		plan, err := attack.NewPlan(spec.Run.Name, attack.Env{
			Pop:          study.Pop,
			NetworkNodes: study.Opts.NetworkNodes,
			Seed:         study.Seed(),
			Obs:          study.Observer(),
			Faults:       study.Opts.Faults,
			NewSim:       study.NewSimFromPopulation,
		})
		if err != nil {
			return err
		}
		_, err = plan.Run(nil, o.Registry())
		return err
	})
	return err
}

// finish derives the per-layer metrics from the spans and counts. Metrics
// the workload measured elsewhere (service, checkpoint, runtime, load
// generator) are set by the caller afterwards.
func (l *layerRun) finish(out *outcome) {
	for _, m := range perLayer {
		out.set(m[0], m[1], 0)
	}
	self := l.sp.selfTimes()
	durs := l.sp.durations()
	for _, name := range core.ExperimentNames() {
		out.set("core."+name+"_ms", "ms", median(ms(self["core."+name])))
	}
	if n := l.counts["core.evaluations"]; n > 0 {
		out.set("core.critical_ms", "ms", l.counts["core.critical_ns"]/n/1e6)
		out.set("dataset.trace_node_blocks", "count", l.counts["dataset.trace_node_blocks"]/n)
	}
	traceNs := sum(ms(durs["dataset.trace"])) * 1e6
	out.set("dataset.trace_ms", "ms", median(ms(l.sp.perOp("dataset.trace"))))
	if nb := l.counts["dataset.trace_node_blocks"]; nb > 0 {
		out.set("dataset.trace_ns_per_node_block", "ns", traceNs/nb)
	}
	out.set("dataset.generate_ms", "ms", median(ms(durs["dataset.generate"])))

	if n := l.counts["topology.route_tables"]; n > 0 {
		out.set("topology.routes", "count", l.counts["topology.routes"]/n)
	}
	for _, k := range []string{"resolve", "announce"} {
		calls := l.counts["topology."+k+"_calls"]
		out.set("topology."+k+"_calls", "count", calls)
		if calls > 0 {
			out.set("topology."+k+"_ns", "ns", sum(ms(durs["topology."+k]))*1e6/calls)
		}
	}

	out.set("gridsim.cell_steps", "count", l.counts["gridsim.cell_steps"])
	out.set("gridsim.cell_flips", "count", l.counts["gridsim.cell_flips"])
	for engine, steps := range l.gridSteps {
		if steps > 0 {
			out.set("gridsim."+engine+".ns_per_cell_step", "ns", float64(l.gridNs[engine])/steps)
		}
	}

	sent, deduped := l.counts["netsim.msgs_sent"], l.counts["netsim.msgs_deduped"]
	out.set("netsim.msgs_sent", "count", sent)
	out.set("netsim.msgs_deduped", "count", deduped)
	out.set("netsim.busy_ms", "ms", float64(l.busy)/1e6)
	if sent > 0 {
		// Base: netsim.msgs_sent. A deduplicated delivery is wasted work.
		out.set("netsim.useful_msg_ratio", "ratio", 1-deduped/sent)
		out.set("netsim.ns_per_msg", "ns", float64(l.busy)/sent)
	}

	for _, name := range attackNames {
		out.set("attack."+name+"_ms", "ms", median(ms(durs["attack."+name])))
	}
	for _, name := range defenseNames {
		out.set("defense."+name+"_ms", "ms", median(ms(durs["defense."+name])))
	}
}
