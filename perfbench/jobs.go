package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// The two daemon workloads are open loops: one process drives a daemon host
// over loopback HTTP with at most nproc connections, sending each job when
// it is due whatever the daemon is doing, and timing it from that moment.

const (
	// freshRate is the offered rate of jobs-fresh (see freshMix).
	freshRate = 1.6
	// cachedRate is the offered rate of jobs-cached.
	cachedRate = 50.0
	// poolSeeds is how many warm study seeds the daemon builds populations
	// for during set-up.
	poolSeeds = 4
	// coldEvery makes every coldEvery-th jobs-fresh job use a never-seen
	// seed, which puts population generation on the job path.
	coldEvery = 5
	// writeEvery makes every writeEvery-th jobs-cached request a never-seen
	// spec (10%); the rest re-submit the working set.
	writeEvery = 10
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
	// statusPoll is how often a client waiting for a job reads its status.
	statusPoll = 10 * time.Millisecond
)

// kind is one spec shape of a mix.
type kind struct {
	verb, name string
	nodes      int
	shards     int
	stepBudget int
}

func (k kind) spec(seed int64) core.Spec {
	spec := core.SpecFromOptions(seed)
	spec.Run = core.Command{Verb: k.verb, Name: k.name}
	spec.NetworkNodes, spec.Shards, spec.StepBudget = k.nodes, k.shards, k.stepBudget
	return spec
}

// The jobs-fresh mix: the four attacks at 150, 500 and 1000 network nodes
// and the blockaware, stratum and placement defenses (light jobs, under a
// second each) come every cycle; the heavy jobs — the heal study on each
// grid engine, routeguard and one journaled `experiment all`, seconds each
// and holding a job worker that long — come once every three cycles. The
// weighting keeps the mix's CPU cost at the offered rate near a third of a
// 2-CPU host while every kind still runs in every run.
var (
	freshLight = []kind{
		{verb: "attack", name: "spatial", nodes: 150},
		{verb: "attack", name: "temporal", nodes: 500},
		{verb: "attack", name: "logical", nodes: 1000},
		{verb: "attack", name: "spatiotemporal", nodes: 150},
		{verb: "defend", name: "stratum"},
		{verb: "attack", name: "temporal", nodes: 1000},
		{verb: "attack", name: "spatial", nodes: 500},
		{verb: "defend", name: "blockaware"},
		{verb: "attack", name: "logical", nodes: 150},
		{verb: "attack", name: "spatiotemporal", nodes: 1000},
		{verb: "defend", name: "placement"},
		{verb: "attack", name: "temporal", nodes: 150},
		{verb: "attack", name: "logical", nodes: 500},
		{verb: "attack", name: "spatial", nodes: 1000},
		{verb: "attack", name: "spatiotemporal", nodes: 500},
	}
	freshHeavy = []kind{
		{verb: "experiment", name: "healstudy"},
		{verb: "defend", name: "routeguard"},
		{verb: "experiment", name: "all"},
		{verb: "experiment", name: "healstudy", shards: 1},
	}
	// freshMix is the offered order: three passes over the light kinds with
	// the heavy ones spread between them.
	freshMix = func() []kind {
		var mix []kind
		for j := 0; j < 3*len(freshLight); j++ {
			if j%12 == 0 && j/12 < len(freshHeavy) {
				mix = append(mix, freshHeavy[j/12])
			}
			mix = append(mix, freshLight[j%len(freshLight)])
		}
		return mix
	}()
)

// cachedKinds make up the jobs-cached working set, each at every pool seed
// with step_budget 0 and 500: results from a few hundred bytes to 37 KB.
var cachedKinds = []kind{
	{verb: "experiment", name: "table2"}, {verb: "experiment", name: "table3"},
	{verb: "experiment", name: "table4"}, {verb: "experiment", name: "table6"},
	{verb: "experiment", name: "table8"}, {verb: "experiment", name: "figure2"},
	{verb: "experiment", name: "figure3"}, {verb: "experiment", name: "figure4"},
	{verb: "experiment", name: "figure7"}, {verb: "defend", name: "stratum"},
	{verb: "defend", name: "placement"}, {verb: "export", name: "figure3"},
	{verb: "export", name: "figure4"}, {verb: "export", name: "table6"},
}

// writeKinds are the never-seen jobs-cached specs: compute of a millisecond
// or less on a warm population, so the write-ahead and result fsyncs
// dominate. A distinct step_budget of 1000 and up makes each one new.
var writeKinds = []kind{
	{verb: "defend", name: "stratum"}, {verb: "defend", name: "placement"},
	{verb: "experiment", name: "table3"}, {verb: "experiment", name: "figure2"},
	{verb: "export", name: "figure3"},
}

// warmKind builds a daemon's populations during set-up. Its step budget
// keeps it apart from every measured spec; the restarted jobs-cached daemon
// uses warmKind with budget 2 so it is not served from disk.
var warmKind = kind{verb: "experiment", name: "table3", stepBudget: 1}

// jobOp is one request of the schedule.
type jobOp struct {
	spec  core.Spec
	raw   []byte
	id    string
	due   time.Duration
	class string // jobs-fresh: warm or cold; jobs-cached: hit or write
}

func newOp(spec core.Spec, due time.Duration, class string) (jobOp, error) {
	raw, err := spec.CanonicalJSON()
	if err != nil {
		return jobOp{}, err
	}
	id, err := spec.Fingerprint()
	return jobOp{spec: spec, raw: raw, id: id, due: due, class: class}, err
}

// opResult is what the client saw for one op.
type opResult struct {
	late    time.Duration
	latency time.Duration
	rtt     time.Duration // the submit round trip
	status  service.SubmitStatus
	code    int
	output  []byte
	err     error
}

// client talks to a daemon host over loopback HTTP.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string, conns int) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, body, err
}

func (c *client) get(path string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.do(req)
}

// usage reads the daemon host's CPU time and heap allocation so far.
func (c *client) usage() (usage, error) {
	var u usage
	code, body, err := c.get("/bench/usage")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("usage: %d", code)
	}
	if err != nil {
		return u, err
	}
	return u, json.Unmarshal(body, &u)
}

// run submits op, waits for its job to finish if it is not served from the
// cache, and fetches its result.
func (c *client) run(op jobOp, due time.Time) opResult {
	var res opResult
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(op.raw))
	if err != nil {
		return opResult{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	code, body, err := c.do(req)
	res.rtt, res.code = time.Since(t0), code
	if err != nil {
		res.err = err
		return res
	}
	if code == http.StatusTooManyRequests {
		res.status = service.SubmitRefused
		return res
	}
	var reply submitReply
	if err := json.Unmarshal(body, &reply); err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
		res.err = fmt.Errorf("submit: %d %s", code, strings.TrimSpace(string(body)))
		return res
	}
	res.status = reply.Status
	state := reply.Job.State
	for !state.Terminal() {
		time.Sleep(statusPoll)
		code, body, err := c.get("/v1/jobs/" + op.id)
		var view service.View
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(body, &view)
		} else if err == nil {
			err = fmt.Errorf("status: %d", code)
		}
		if err != nil {
			res.err = err
			return res
		}
		state = view.State
	}
	if state != service.StateDone {
		res.err = fmt.Errorf("job %s ended %s", op.id, state)
		return res
	}
	code, body, err = c.get("/v1/jobs/" + op.id + "/result")
	res.latency = time.Since(due)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result: %d", code)
	}
	res.output, res.err = body, err
	return res
}

// drive offers ops on their schedule and returns what each one saw.
func drive(c *client, ops []jobOp) []opResult {
	results := make([]opResult, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range ops {
		due := start.Add(ops[i].due)
		time.Sleep(time.Until(due))
		late := time.Since(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.run(ops[i], due)
			results[i].late = late
		}(i)
	}
	wg.Wait()
	return results
}
