package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/topology"
)

// The lag trace models each node's consensus view over time, reproducing
// the paper's Figure 6 stacked series and the Table V vulnerability
// optimization. The process:
//
//   - Blocks arrive as a Poisson process with the 600 s Bitcoin interval.
//   - When a block is published, every up node that was synced becomes one
//     block behind and schedules a catch-up after an exponential delay with
//     its per-node mean (seconds for stable nodes, minutes for waverers,
//     tens of hours for stale nodes). Nodes already catching up simply fall
//     further behind until their catch-up fires, then sync to the tip.
//   - Episodes — network-wide slowdowns (congestion, connectivity events) —
//     multiply catch-up delays while active. They produce the tall yellow/
//     purple spikes of Figure 6(b) where up to ~90% of the network lags.
//
// The paper defines the lagging time L(t) of a node lagging at time t as
// the minimum time until it catches up; a node is vulnerable for constraint
// T if L(t) >= T (Table V).

// TraceConfig parameterizes a trace run.
type TraceConfig struct {
	// Duration is the simulated time span (the paper's general trend spans
	// two months; Figure 6(b) one day; Figure 6(c) ten minutes).
	Duration time.Duration
	// SampleEvery is the sampling interval (10 min for Figures 6(a,b),
	// 1 min for Figure 6(c)).
	SampleEvery time.Duration
	// Seed fixes the run (independent of the population seed).
	Seed int64
	// EpisodesPerDay is the Poisson rate of network-wide slowdown episodes.
	// Default 3.
	EpisodesPerDay float64
	// EpisodeMeanDuration is the mean episode length. Default 40 min.
	EpisodeMeanDuration time.Duration
	// EpisodeSlowdownMax bounds the uniform delay multiplier during an
	// episode (drawn from [3, max]). Default 8.
	EpisodeSlowdownMax float64
	// TrackSyncedByAS records per-AS synced-node counts at every sample
	// (needed for Table VII / Figure 8; costs memory on long traces).
	TrackSyncedByAS bool
	// VulnerabilityWindows are the timing constraints T for which each
	// sample records vulnerable-node counts (Table V). Defaults to the
	// paper's set {5,10,15,20,25,30,40,70,200} minutes.
	VulnerabilityWindows []time.Duration
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.EpisodesPerDay == 0 {
		c.EpisodesPerDay = 3
	}
	if c.EpisodeMeanDuration == 0 {
		c.EpisodeMeanDuration = 40 * time.Minute
	}
	if c.EpisodeSlowdownMax == 0 {
		c.EpisodeSlowdownMax = 8
	}
	if len(c.VulnerabilityWindows) == 0 {
		c.VulnerabilityWindows = DefaultVulnerabilityWindows()
	}
	return c
}

// DefaultVulnerabilityWindows returns Table V's timing constraints.
func DefaultVulnerabilityWindows() []time.Duration {
	mins := []int{5, 10, 15, 20, 25, 30, 40, 70, 200}
	out := make([]time.Duration, len(mins))
	for i, m := range mins {
		out[i] = time.Duration(m) * time.Minute
	}
	return out
}

// LagThresholds are the block-lag thresholds of Table V's columns.
var lagThresholds = [3]int{1, 2, 5}

// Sample is one sampling instant of the trace.
type Sample struct {
	T time.Duration
	// Buckets stacks nodes by blocks-behind, Figure 6's series: index 0
	// synced, then 1, 2-4, 5-10, >10.
	Buckets [5]int
	// UpNodes is the number of reachable nodes at the sample.
	UpNodes int
	// Vulnerable[i][j] counts nodes that are at least lagThresholds[j]
	// blocks behind AND will remain behind for at least
	// VulnerabilityWindows[i] more time (the paper's L(t) >= T).
	Vulnerable [][3]int
	// SyncedByAS counts synced nodes per AS, indexed like Trace.ASNs (only
	// when TrackSyncedByAS; nil otherwise). ASes with no synced node at
	// the sample hold zero.
	SyncedByAS []int32
	// EpisodeActive records whether a slowdown episode covered this sample.
	EpisodeActive bool
}

// Trace is the result of a lag-process run.
type Trace struct {
	Config  TraceConfig
	Samples []Sample
	// Blocks is the number of blocks published during the trace.
	Blocks int
	// ASNs names the slots of every Sample.SyncedByAS, in the population's
	// ASRows order (only when TrackSyncedByAS).
	ASNs []topology.ASN
}

// ASSlot returns the Sample.SyncedByAS index of an AS, or false when the
// trace has no slot for it (it did not track per-AS sync, or the AS hosts
// no node of the population).
func (t *Trace) ASSlot(asn topology.ASN) (int, bool) {
	for i, a := range t.ASNs {
		if a == asn {
			return i, true
		}
	}
	return 0, false
}

// lagProcess is the dense working state of one trace: flat per-node arrays
// over the population's up nodes only, in node order, so the block and
// sample steps visit nodes (and draw catch-up delays) in exactly the order
// of a walk over every node that skips the down ones.
type lagProcess struct {
	// rate is each node's catch-up rate, 1/MeanCatchup in seconds.
	rate []float64
	// slot is each node's index into Trace.ASNs (nil when not tracking).
	slot []int32
	// syncedTo is the height the node has fully verified.
	syncedTo []int
	// catchupAt is when a pending node jumps to the tip current then.
	catchupAt []time.Duration
	// pending marks a node with a scheduled catch-up.
	pending []bool
	// tip is the height of the newest published block.
	tip int
	// vulnHist[k][t] counts, within one sample, the lagging nodes that
	// meet exactly the first k vulnerability windows and the first t
	// lag thresholds.
	vulnHist [][len(lagThresholds) + 1]int
}

// newLagProcess lays out the up nodes for a trace with the given number
// of vulnerability windows; trackAS adds their AS slots.
func (p *Population) newLagProcess(windows int, trackAS bool) (*lagProcess, error) {
	up := 0
	for i := range p.Nodes {
		if p.Nodes[i].Up {
			up++
		}
	}
	lp := &lagProcess{
		rate:      make([]float64, up),
		syncedTo:  make([]int, up),
		catchupAt: make([]time.Duration, up),
		pending:   make([]bool, up),
		vulnHist:  make([][len(lagThresholds) + 1]int, windows+1),
	}
	if trackAS {
		lp.slot = make([]int32, up)
	}
	j := 0
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if !n.Up {
			continue
		}
		lp.rate[j] = 1 / n.MeanCatchup.Seconds()
		if trackAS {
			s, ok := p.asIndex[n.ASN]
			if !ok {
				return nil, fmt.Errorf("dataset: node %d is in AS%d, which has no AS row", n.ID, n.ASN)
			}
			lp.slot[j] = int32(s)
		}
		j++
	}
	return lp, nil
}

// block publishes one block at now: every synced node (and every node
// whose catch-up fell due, which syncs to the previous tip first) draws
// its delay to fetch it, stretched by the episode factor slow. Nodes still
// catching up fall further behind; their catchupAt stands.
//
//hot:path
func (lp *lagProcess) block(rng *rand.Rand, now time.Duration, slow float64) {
	lp.tip++
	for i, rate := range lp.rate {
		if lp.pending[i] && lp.catchupAt[i] <= now {
			lp.syncedTo[i] = lp.tip - 1
			lp.pending[i] = false
		}
		if !lp.pending[i] {
			delay := stats.Exponential(rng, rate)
			delay *= slow
			lp.catchupAt[i] = now + time.Duration(delay*float64(time.Second))
			lp.pending[i] = true
		}
	}
}

// sample fires the catch-ups due at s.T and counts the nodes into s, whose
// Vulnerable (one row per window) and, when tracking, SyncedByAS (one slot
// per AS) arrive zeroed. A lagging node counts toward Vulnerable[wi][ti]
// for every leading window wi its remaining catch-up time meets (windows
// are ascending) and every threshold ti its lag meets. The node loop only
// files each node under those two prefix lengths in vulnHist, and the rows
// are summed from the histogram afterwards.
//
//hot:path
func (lp *lagProcess) sample(s *Sample, windows []time.Duration) {
	now := s.T
	hist := lp.vulnHist
	for i := range lp.rate {
		if lp.pending[i] && lp.catchupAt[i] <= now {
			lp.syncedTo[i] = lp.tip
			lp.pending[i] = false
		}
		behind := lp.tip - lp.syncedTo[i]
		bucketAdd(&s.Buckets, behind)
		if behind == 0 && lp.slot != nil {
			s.SyncedByAS[lp.slot[i]]++
		}
		if behind > 0 && lp.pending[i] {
			remaining := lp.catchupAt[i] - now
			k := 0
			for k < len(windows) && remaining >= windows[k] {
				k++
			}
			t := 0
			for t < len(lagThresholds) && behind >= lagThresholds[t] {
				t++
			}
			hist[k][t]++
		}
	}
	s.UpNodes = len(lp.rate)

	// Vulnerable[wi][ti] = nodes with k > wi and t > ti: suffix sums over
	// the histogram, from the longest window down.
	var acc [len(lagThresholds)]int
	for wi := len(windows) - 1; wi >= 0; wi-- {
		row := &hist[wi+1]
		c := 0
		for ti := len(lagThresholds) - 1; ti >= 0; ti-- {
			c += row[ti+1]
			acc[ti] += c
		}
		s.Vulnerable[wi] = acc
	}
	clear(hist)
}

// RunTrace simulates the lag process over the population.
func (p *Population) RunTrace(cfg TraceConfig) (*Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.Duration <= 0 || cfg.SampleEvery <= 0 {
		return nil, errors.New("dataset: trace needs positive duration and sample interval")
	}
	if cfg.SampleEvery > cfg.Duration {
		return nil, fmt.Errorf("dataset: sample interval %v exceeds duration %v", cfg.SampleEvery, cfg.Duration)
	}
	lp, err := p.newLagProcess(len(cfg.VulnerabilityWindows), cfg.TrackSyncedByAS)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRand(cfg.Seed)

	// Pre-draw episode schedule for the whole trace.
	episodes := drawEpisodes(rng, cfg)

	// Sample i sits at (i+1)*SampleEvery, so the grid holds exactly
	// Duration/SampleEvery samples; their rows share one backing array
	// per field, capped so no sample's slice can grow into the next.
	n := int(cfg.Duration / cfg.SampleEvery)
	windows := cfg.VulnerabilityWindows
	trace := &Trace{Config: cfg, Samples: make([]Sample, n)}
	vuln := make([][3]int, n*len(windows))
	var byAS []int32
	if cfg.TrackSyncedByAS {
		trace.ASNs = make([]topology.ASN, len(p.ASRows))
		for i, r := range p.ASRows {
			trace.ASNs[i] = r.ASN
		}
		byAS = make([]int32, n*len(p.ASRows))
	}

	// Event loop over two interleaved clocks: Poisson block arrivals and
	// the regular sampling grid.
	nextBlock := time.Duration(stats.Exponential(rng, 1/BlockInterval.Seconds()) * float64(time.Second))
	nextSample := cfg.SampleEvery

	for si := 0; si < n; {
		if nextBlock <= nextSample {
			now := nextBlock
			trace.Blocks++
			lp.block(rng, now, episodeMultiplier(episodes, now))
			nextBlock = now + time.Duration(stats.Exponential(rng, 1/BlockInterval.Seconds())*float64(time.Second))
			continue
		}

		s := &trace.Samples[si]
		s.T = nextSample
		s.EpisodeActive = episodeMultiplier(episodes, nextSample) > 1
		w := len(windows)
		s.Vulnerable = vuln[si*w : (si+1)*w : (si+1)*w]
		if byAS != nil {
			a := len(trace.ASNs)
			s.SyncedByAS = byAS[si*a : (si+1)*a : (si+1)*a]
		}
		lp.sample(s, windows)
		si++
		nextSample += cfg.SampleEvery
	}
	return trace, nil
}

func bucketAdd(b *[5]int, behind int) {
	switch {
	case behind <= 0:
		b[0]++
	case behind == 1:
		b[1]++
	case behind <= 4:
		b[2]++
	case behind <= 10:
		b[3]++
	default:
		b[4]++
	}
}

// episode is one slowdown window.
type episode struct {
	start, end time.Duration
	factor     float64
}

// drawEpisodes pre-samples slowdown windows over the configured duration.
func drawEpisodes(rng interface {
	Float64() float64
	ExpFloat64() float64
}, cfg TraceConfig) []episode {
	// Presize for the Poisson mean plus four standard deviations, so the
	// schedule is one allocation whatever the trace length; a rarer, longer
	// draw still grows by append.
	day := 24 * time.Hour
	var out []episode
	if mean := cfg.EpisodesPerDay * cfg.Duration.Hours() / 24; mean > 0 {
		out = make([]episode, 0, min(int(mean+4*math.Sqrt(mean))+4, 1<<12))
	}
	rate := cfg.EpisodesPerDay / day.Seconds()
	t := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	for t < cfg.Duration {
		length := time.Duration(rng.ExpFloat64() * float64(cfg.EpisodeMeanDuration))
		factor := 3 + rng.Float64()*(cfg.EpisodeSlowdownMax-3)
		out = append(out, episode{start: t, end: t + length, factor: factor})
		t += length + time.Duration(rng.ExpFloat64()/rate*float64(time.Second))
	}
	return out
}

// episodeMultiplier returns the active slowdown factor at time t (1 when no
// episode is active).
func episodeMultiplier(eps []episode, t time.Duration) float64 {
	for _, e := range eps {
		if t >= e.start && t < e.end {
			return e.factor
		}
		if e.start > t {
			break
		}
	}
	return 1
}

// MaxVulnerable scans the trace for each (window, threshold) pair and
// returns the maximum simultaneous vulnerable-node count and the fraction
// of up nodes at the maximizing sample — Table V's optimization: "given a
// timestamp t and a timing constraint T, find the maximum number of
// vulnerable nodes whose lagging time L(t) is at least T".
func (t *Trace) MaxVulnerable() []VulnRow {
	out := make([]VulnRow, len(t.Config.VulnerabilityWindows))
	for wi := range t.Config.VulnerabilityWindows {
		out[wi] = t.scanWindow(wi)
	}
	return out
}

// MaxVulnerableParallel is MaxVulnerable with the per-window scans fanned
// across workers (<= 0 means one per CPU). Each window's scan is
// independent and read-only on the trace, so the output is identical to
// the sequential path for any worker count.
func (t *Trace) MaxVulnerableParallel(workers int) ([]VulnRow, error) {
	return parallel.Map(workers, len(t.Config.VulnerabilityWindows),
		func(wi int) (VulnRow, error) { return t.scanWindow(wi), nil })
}

// scanWindow runs the Table V optimization for one timing constraint.
func (t *Trace) scanWindow(wi int) VulnRow {
	row := VulnRow{Window: t.Config.VulnerabilityWindows[wi]}
	for _, s := range t.Samples {
		for ti := range lagThresholds {
			n := s.Vulnerable[wi][ti]
			if n > row.Max[ti] {
				row.Max[ti] = n
				if s.UpNodes > 0 {
					row.Frac[ti] = float64(n) / float64(s.UpNodes)
				}
			}
		}
	}
	return row
}

// VulnRow is one Table V row: for a timing constraint, the maximum count
// (and fraction of up nodes) of nodes at least 1, 2, and 5 blocks behind
// that stay behind for at least that long.
type VulnRow struct {
	Window time.Duration
	Max    [3]int
	Frac   [3]float64
}

// SyncedSeries extracts the Figure 8(a) series: per sample, the synced,
// 1-behind, and 2-4-behind counts.
func (t *Trace) SyncedSeries() (synced, behind1, behind2to4 []int) {
	for _, s := range t.Samples {
		synced = append(synced, s.Buckets[0])
		behind1 = append(behind1, s.Buckets[1])
		behind2to4 = append(behind2to4, s.Buckets[2])
	}
	return synced, behind1, behind2to4
}

// TopSyncedASes aggregates per-AS synced-node counts across the whole trace
// (requires TrackSyncedByAS) and returns the top n — Table VII. Counts are
// the per-sample average number of synced nodes the AS hosted; ASes that
// never hosted a synced node are not ranked.
func (t *Trace) TopSyncedASes(n int) ([]SyncedASRow, error) {
	if len(t.Samples) == 0 {
		return nil, errors.New("dataset: empty trace")
	}
	if t.Samples[0].SyncedByAS == nil {
		return nil, errors.New("dataset: trace did not track per-AS sync (set TrackSyncedByAS)")
	}
	totals := make([]int, len(t.ASNs))
	var allSynced int
	for _, s := range t.Samples {
		for slot, c := range s.SyncedByAS {
			totals[slot] += int(c)
			allSynced += int(c)
		}
	}
	var rows []SyncedASRow
	for slot, c := range totals {
		if c == 0 {
			continue
		}
		rows = append(rows, SyncedASRow{
			ASN:      t.ASNs[slot],
			Nodes:    c / len(t.Samples),
			Fraction: float64(c) / float64(allSynced),
		})
	}
	sortSyncedRows(rows)
	if n > len(rows) {
		n = len(rows)
	}
	return rows[:n], nil
}

// SyncedASesAt ranks the ASes hosting synced nodes at sample i (requires
// TrackSyncedByAS), most first, each with its share of the sample's synced
// nodes. ASes with no synced node at the sample are not listed.
func (t *Trace) SyncedASesAt(i int) []SyncedASRow {
	s := &t.Samples[i]
	var rows []SyncedASRow
	for slot, c := range s.SyncedByAS {
		if c == 0 {
			continue
		}
		rows = append(rows, SyncedASRow{
			ASN:      t.ASNs[slot],
			Nodes:    int(c),
			Fraction: float64(c) / float64(s.Buckets[0]),
		})
	}
	sortSyncedRows(rows)
	return rows
}

// sortSyncedRows orders by synced count descending with ASN as tie-break.
func sortSyncedRows(rows []SyncedASRow) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Nodes != rows[j].Nodes {
			return rows[i].Nodes > rows[j].Nodes
		}
		return rows[i].ASN < rows[j].ASN
	})
}
