package main

import (
	"encoding/json"
	"os"
	"time"
)

// The traced run records host-time spans in memory from the benchmark's own
// files: a root span per operation, then one span per call into a layer's
// public functions made with that operation's inputs. No span goes inside
// the program. A child span that re-executes, with the same inputs, a layer
// call its parent makes internally (a RunTrace inside an experiment, say) is
// a replayed child: its duration is subtracted from the parent's to give the
// parent's self time, exactly as an enclosed child would be.

// span is one recorded interval.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // the root span this span belongs to
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the start of the traced run.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// spans is the in-memory span store. The replays that record into it run on
// one goroutine, so it needs no lock.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span under parent (0 opens a root span) and returns its id.
func (s *spans) begin(parent int, name string) int {
	id := len(s.list) + 1
	op := id
	if parent != 0 {
		op = s.list[parent-1].Op
	}
	s.list = append(s.list, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: int64(time.Since(s.t0))})
	return id
}

// end closes span id and returns its duration.
func (s *spans) end(id int) time.Duration {
	s.list[id-1].EndNs = int64(time.Since(s.t0))
	return s.list[id-1].dur()
}

// timed runs fn inside a span and returns fn's error.
func (s *spans) timed(parent int, name string, fn func() error) error {
	id := s.begin(parent, name)
	err := fn()
	s.end(id)
	return err
}

// selfTimes returns, per span name, the self time of every span with that
// name: its duration minus the durations of its children, floored at zero
// (a replayed child can measure longer than the work it stands for inside
// its parent when that work is almost all of the parent).
func (s *spans) selfTimes() map[string][]time.Duration {
	childSum := make([]time.Duration, len(s.list)+1)
	for _, sp := range s.list {
		if sp.Parent != 0 {
			childSum[sp.Parent] += sp.dur()
		}
	}
	out := map[string][]time.Duration{}
	for _, sp := range s.list {
		out[sp.Name] = append(out[sp.Name], max(0, sp.dur()-childSum[sp.ID]))
	}
	return out
}

// durations returns, per span name, every span's duration.
func (s *spans) durations() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, sp := range s.list {
		out[sp.Name] = append(out[sp.Name], sp.dur())
	}
	return out
}

// perOp sums, for each root span, the durations of its spans named name.
// Roots without such a span are skipped.
func (s *spans) perOp(name string) []time.Duration {
	byOp := map[int]time.Duration{}
	var order []int
	for _, sp := range s.list {
		if sp.Name != name {
			continue
		}
		if _, seen := byOp[sp.Op]; !seen {
			order = append(order, sp.Op)
		}
		byOp[sp.Op] += sp.dur()
	}
	out := make([]time.Duration, len(order))
	for i, op := range order {
		out[i] = byOp[op]
	}
	return out
}

// write stores every span as JSON at the end of the run.
func (s *spans) write(path string) error {
	raw, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
