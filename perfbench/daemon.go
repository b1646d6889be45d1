package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/iofault"
	"repro/internal/service"
)

// daemonQueue is partitiond serve's default admission queue bound.
const daemonQueue = 16

// statusPollPeriod is how often the instrumented daemon host reads the state
// of each admitted job, which bounds the precision of the queue-wait and
// run-time split.
const statusPollPeriod = time.Millisecond

// daemonStats is what the daemon host writes at exit.
type daemonStats struct {
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// The rest is recorded only by an instrumented host.
	Runtime     rtStats              `json:"runtime"`
	FS          fsCounts             `json:"fs"`
	HandlerUs   map[string][]float64 `json:"handler_us,omitempty"`
	QueueWaitMs []float64            `json:"queue_wait_ms,omitempty"`
	RunMs       []float64            `json:"run_ms,omitempty"`
}

// daemonMain hosts the service the way `partitiond serve` does — service.New
// over a state directory with one job worker per CPU and partitiond's queue
// bound, served by service.NewServer — on a loopback port it prints as its
// first line of output. SIGTERM drains it like partitiond. With -instrument
// the host also times the filesystem (timingFS through service.Config.FS),
// each HTTP handler, and each job's queue wait and run time.
func daemonMain(args []string) error {
	fs := flag.NewFlagSet("perfbench daemon", flag.ContinueOnError)
	state := fs.String("state", "", "state directory")
	statsPath := fs.String("stats", "", "file the host writes its statistics to at exit")
	instrument := fs.Bool("instrument", false, "time filesystem calls, handlers and job states")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *state == "" || *statsPath == "" {
		return errors.New("-state and -stats are required")
	}
	var tfs *timingFS
	cfg := service.Config{StateDir: *state, Queue: daemonQueue}
	if *instrument {
		tfs = &timingFS{inner: iofault.OS}
		cfg.FS = tfs
	}
	svc, _, err := service.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := service.NewServer(ln.Addr().String(), svc)
	var hooks *hostHooks
	if *instrument {
		hooks = newHostHooks(svc)
		srv.Handler = hooks.wrap(srv.Handler)
	}
	// The host's CPU time and heap allocation so far, read by the
	// benchmark at the start and end of its measured window.
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler)
	mux.HandleFunc("GET /bench/usage", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(readUsage()) // the client reports a short body
	})
	srv.Handler = mux
	var rt *rtSampler
	if *instrument {
		rt = startRuntimeSampler()
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	fmt.Println("listening", ln.Addr().String())

	select {
	case <-sigc:
	case err := <-served:
		return err
	}
	svc.Drain()
	if err := srv.Close(); err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	var stats daemonStats
	if hooks != nil {
		stats.Runtime = rt.finish()
		hooks.stop()
		stats.FS = tfs.counts()
		stats.HandlerUs, stats.QueueWaitMs, stats.RunMs = hooks.results()
	}
	if stats.PeakRSSMB, err = peakRSSMB(os.Getpid()); err != nil {
		return err
	}
	raw, err := json.Marshal(stats)
	if err != nil {
		return err
	}
	return os.WriteFile(*statsPath, raw, 0o644)
}

// hostHooks is the instrumented host's view of the service from outside it:
// handler times per route, and each admitted job's state read every
// statusPollPeriod through Service.Status.
type hostHooks struct {
	svc *service.Service

	mu      sync.Mutex
	handler map[string][]float64
	active  map[string]*jobTimes
	done    []*jobTimes

	// wake tells the poller a job was admitted; it sleeps while none is
	// active, so an idle host is not woken every millisecond.
	wake chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup
}

type jobTimes struct {
	admitted, running, ended time.Time
}

func newHostHooks(svc *service.Service) *hostHooks {
	h := &hostHooks{
		svc:     svc,
		handler: map[string][]float64{},
		active:  map[string]*jobTimes{},
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
	}
	h.wg.Add(1)
	go h.poll()
	return h
}

// route names the API call a request makes.
func route(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		return "submit"
	case strings.HasSuffix(r.URL.Path, "/result"):
		return "result"
	case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		return "status"
	}
	return "other"
}

// recorder keeps the response body of a submit so the hooks learn which
// job was admitted.
type recorder struct {
	http.ResponseWriter
	code int
	body bytes.Buffer
	keep bool
}

func (r *recorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.keep {
		r.body.Write(p)
	}
	return r.ResponseWriter.Write(p)
}

// Flush and Unwrap keep the trace stream's flushing and write-deadline
// control working through the wrapper.
func (r *recorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *recorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (h *hostHooks) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := route(r)
		rec := &recorder{ResponseWriter: w, code: http.StatusOK, keep: name == "submit"}
		start := time.Now()
		next.ServeHTTP(rec, r)
		end := time.Now()
		h.mu.Lock()
		defer h.mu.Unlock()
		h.handler[name] = append(h.handler[name], float64(end.Sub(start))/1e3)
		if name != "submit" || rec.code != http.StatusAccepted {
			return
		}
		var reply submitReply
		if json.Unmarshal(rec.body.Bytes(), &reply) == nil {
			h.active[reply.Job.ID] = &jobTimes{admitted: end}
			select {
			case h.wake <- struct{}{}:
			default: // a wake-up is already pending
			}
		}
	})
}

func (h *hostHooks) poll() {
	defer h.wg.Done()
	for {
		h.mu.Lock()
		ids := make([]string, 0, len(h.active))
		for id := range h.active {
			ids = append(ids, id)
		}
		h.mu.Unlock()
		wait := time.After(statusPollPeriod)
		if len(ids) == 0 {
			wait = nil // sleep until a job is admitted
		}
		select {
		case <-h.quit:
			return
		case <-h.wake:
		case <-wait:
		}
		for _, id := range ids {
			view, ok := h.svc.Status(id)
			if !ok {
				continue
			}
			now := time.Now()
			h.mu.Lock()
			jt := h.active[id]
			if view.State == service.StateRunning && jt.running.IsZero() {
				jt.running = now
			}
			if view.State.Terminal() {
				if jt.running.IsZero() {
					// Ran between two polls: the split is within one period.
					jt.running = now
				}
				jt.ended = now
				h.done = append(h.done, jt)
				delete(h.active, id)
			}
			h.mu.Unlock()
		}
	}
}

func (h *hostHooks) stop() {
	close(h.quit)
	h.wg.Wait()
}

func (h *hostHooks) results() (handler map[string][]float64, queueWaitMs, runMs []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, jt := range h.done {
		queueWaitMs = append(queueWaitMs, float64(jt.running.Sub(jt.admitted))/1e6)
		runMs = append(runMs, float64(jt.ended.Sub(jt.running))/1e6)
	}
	return h.handler, queueWaitMs, runMs
}

// submitReply is the POST /v1/jobs response document.
type submitReply struct {
	Status service.SubmitStatus `json:"status"`
	Job    service.View         `json:"job"`
}

// daemon is a running daemon host child process.
type daemon struct {
	cmd       *exec.Cmd
	addr      string
	statsPath string
}

// children are the daemon hosts this process started and has not yet
// stopped; killChildren ends them on an error path.
var (
	childrenMu sync.Mutex
	children   = map[*daemon]bool{}
)

// startDaemon starts a daemon host over state and waits until it listens.
func startDaemon(state, statsPath string, instrument bool) (*daemon, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"daemon", "-state", state, "-stats", statsPath}
	if instrument {
		args = append(args, "-instrument")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	// The host dies with this process even if it is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, statsPath: statsPath}
	childrenMu.Lock()
	children[d] = true
	childrenMu.Unlock()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
	if err != nil || !ok {
		d.kill()
		return nil, fmt.Errorf("daemon host did not start: %q %v", line, err)
	}
	d.addr = addr
	return d, nil
}

// stop drains the host with SIGTERM, waits for it to exit and reads its
// statistics.
func (d *daemon) stop() (daemonStats, error) {
	var stats daemonStats
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return stats, err
	}
	err := d.cmd.Wait()
	childrenMu.Lock()
	delete(children, d)
	childrenMu.Unlock()
	if err != nil {
		return stats, fmt.Errorf("daemon host exit: %w", err)
	}
	raw, err := os.ReadFile(d.statsPath)
	if err != nil {
		return stats, err
	}
	return stats, json.Unmarshal(raw, &stats)
}

// cpuUsed is the CPU time a stopped host used over its life.
func (d *daemon) cpuUsed() time.Duration {
	return d.cmd.ProcessState.UserTime() + d.cmd.ProcessState.SystemTime()
}

// kill ends the host at once and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // it may have exited already
	_ = d.cmd.Wait()         // the exit status of a killed host says nothing
	childrenMu.Lock()
	delete(children, d)
	childrenMu.Unlock()
}

// killChildren ends every daemon host still running.
func killChildren() {
	childrenMu.Lock()
	var ds []*daemon
	for d := range children {
		ds = append(ds, d)
	}
	childrenMu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}
