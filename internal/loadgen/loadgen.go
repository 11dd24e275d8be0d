// Package loadgen is the measurement core of cmd/hdcload: open- and
// closed-loop request scheduling with coordinated-omission-safe latency
// accounting and log-linear (HDR-style) histograms.
//
// Closed loop models a fixed fleet of synchronous clients: Workers
// goroutines each issue the next request the moment the previous one
// returns, so offered load adapts to server speed and the loop measures
// capacity. Open loop models independent arrivals: requests are scheduled
// at a fixed Rate regardless of how the server is doing, and each
// latency is measured from the request's SCHEDULED arrival time, not from
// when a worker got around to sending it. That distinction is what makes
// the numbers coordinated-omission-safe — a stalled server inflates the
// recorded latencies of every arrival queued behind the stall instead of
// silently suppressing them (Tene's "coordinated omission").
//
// The package is transport-agnostic: callers hand Run an op closure and
// an error classifier, so the same engine drives HTTP scenarios in
// cmd/hdcload and in-process fixtures in tests.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects the scheduling discipline.
type Mode string

const (
	// ModeClosed runs Workers synchronous request loops.
	ModeClosed Mode = "closed"
	// ModeOpen schedules arrivals at Rate per second and measures from
	// scheduled arrival time.
	ModeOpen Mode = "open"
)

// Config parameterizes one load run.
type Config struct {
	// Mode is the scheduling discipline; empty means ModeClosed.
	Mode Mode
	// Workers is the concurrency: the fleet size in closed loop, the
	// maximum in-flight requests in open loop (arrivals beyond it queue,
	// and their queueing delay is charged to latency). 0 = GOMAXPROCS.
	Workers int
	// Rate is the open-loop arrival rate per second. Ignored in closed
	// loop; required > 0 in open loop.
	Rate float64
	// Duration is the scheduling window. Closed loop stops issuing at the
	// deadline and lets each worker's in-flight op finish; open loop
	// schedules Rate×Duration arrivals and then drains them all. Both
	// drain under the caller's ctx even if the server has fallen behind —
	// dropping the backlog would be coordinated omission.
	Duration time.Duration
	// Classify maps an op error to its error-class label ("429",
	// "transport", ...) for the per-class breakdown. nil classifies every
	// error as "error".
	Classify func(error) string
}

// Result is the outcome of one load run.
type Result struct {
	// Mode, WorkersRequested and Rate echo the effective Config.
	Mode             Mode
	WorkersRequested int
	Rate             float64
	// WorkersEffective is the peak number of ops observed genuinely
	// in flight — the parallelism achieved, as opposed to asked for.
	WorkersEffective int
	// Elapsed is wall-clock time from first schedule to last completion.
	Elapsed time.Duration
	// Requests counts completed ops: successes plus classified errors.
	Requests uint64
	// Errors counts completed ops per error class.
	Errors map[string]uint64
	// Hist holds success latencies only — error paths (a 429 turnaround,
	// a refused connection) have different shapes and would pollute the
	// SLO quantiles.
	Hist *Hist
}

// Success returns the number of ops that completed without error.
func (r *Result) Success() uint64 { return r.Hist.Count() }

// ErrorCount returns the number of ops that completed with an error.
func (r *Result) ErrorCount() uint64 { return r.Requests - r.Success() }

// Throughput returns successful ops per second over the elapsed window.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Success()) / r.Elapsed.Seconds()
}

// gauge tracks current and peak concurrency.
type gauge struct {
	cur  atomic.Int64
	peak atomic.Int64
}

func (g *gauge) enter() {
	c := g.cur.Add(1)
	for {
		p := g.peak.Load()
		if c <= p || g.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

func (g *gauge) exit() { g.cur.Add(-1) }

// workerState is one worker's private tally; merged after the run so the
// hot path is lock-free.
type workerState struct {
	hist *Hist
	errs map[string]uint64
	n    uint64
}

func newWorkerState() *workerState {
	return &workerState{hist: NewHist(), errs: make(map[string]uint64)}
}

func (st *workerState) record(lat time.Duration, err error, classify func(error) string) {
	st.n++
	if err == nil {
		st.hist.Record(lat)
		return
	}
	st.errs[classify(err)]++
}

// Run executes one load run of op under cfg. It returns when every
// scheduled request has completed or ctx is canceled; a cancellation
// mid-run returns the partial Result alongside ctx's error.
func Run(ctx context.Context, cfg Config, op func(context.Context) error) (*Result, error) {
	if cfg.Mode == "" {
		cfg.Mode = ModeClosed
	}
	if cfg.Mode != ModeClosed && cfg.Mode != ModeOpen {
		return nil, fmt.Errorf("loadgen: unknown mode %q", cfg.Mode)
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("loadgen: Duration must be positive")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Mode == ModeOpen && cfg.Rate <= 0 {
		return nil, errors.New("loadgen: open loop requires Rate > 0")
	}
	classify := cfg.Classify
	if classify == nil {
		classify = func(error) string { return "error" }
	}

	states := make([]*workerState, cfg.Workers)
	for i := range states {
		states[i] = newWorkerState()
	}
	var g gauge
	start := time.Now()
	var err error
	if cfg.Mode == ModeClosed {
		err = runClosed(ctx, cfg, op, states, &g, classify)
	} else {
		err = runOpen(ctx, cfg, op, states, &g, classify, start)
	}
	res := &Result{
		Mode:             cfg.Mode,
		WorkersRequested: cfg.Workers,
		Rate:             cfg.Rate,
		WorkersEffective: int(g.peak.Load()),
		Elapsed:          time.Since(start),
		Errors:           make(map[string]uint64),
		Hist:             NewHist(),
	}
	for _, st := range states {
		res.Requests += st.n
		res.Hist.Merge(st.hist)
		for class, c := range st.errs {
			res.Errors[class] += c
		}
	}
	return res, err
}

// runClosed drives Workers synchronous request loops until the deadline.
// The deadline only stops new ops: an op in flight when it passes runs to
// completion under the caller's ctx. Aborting it would drop exactly the
// slowest ops, the ones most likely to straddle the deadline, and a phase
// whose ops outlast the window would record no success at all.
func runClosed(ctx context.Context, cfg Config, op func(context.Context) error, states []*workerState, g *gauge, classify func(error) string) error {
	dctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	var wg sync.WaitGroup
	for _, st := range states {
		wg.Add(1)
		go func(st *workerState) {
			defer wg.Done()
			for dctx.Err() == nil {
				g.enter()
				t0 := time.Now()
				err := op(ctx)
				lat := time.Since(t0)
				g.exit()
				if err != nil && ctx.Err() != nil {
					// The caller canceled the run mid-op; that is an
					// artifact of stopping, not a workload error.
					return
				}
				st.record(lat, err, classify)
			}
		}(st)
	}
	wg.Wait()
	return ctx.Err()
}

// runOpen schedules Rate×Duration arrivals on a fixed timetable and
// charges each request's latency from its scheduled arrival time. The
// arrival queue is buffered for the entire schedule so the dispatcher
// NEVER blocks on slow workers — backpressure shows up as queueing delay
// in the latency distribution, which is the whole point.
func runOpen(ctx context.Context, cfg Config, op func(context.Context) error, states []*workerState, g *gauge, classify func(error) string, start time.Time) error {
	total := int(cfg.Rate * cfg.Duration.Seconds())
	if total < 1 {
		total = 1
	}
	arrivals := make(chan time.Time, total)
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	go func() {
		defer close(arrivals)
		for i := 0; i < total; i++ {
			t := start.Add(time.Duration(float64(i) / cfg.Rate * float64(time.Second)))
			if d := time.Until(t); d > 0 {
				timer.Reset(d)
				select {
				case <-timer.C:
				case <-ctx.Done():
					return
				}
			}
			arrivals <- t
		}
	}()

	var wg sync.WaitGroup
	for _, st := range states {
		wg.Add(1)
		go func(st *workerState) {
			defer wg.Done()
			for t := range arrivals {
				if ctx.Err() != nil {
					return
				}
				g.enter()
				err := op(ctx)
				lat := time.Since(t) // from scheduled arrival: CO-safe
				g.exit()
				if err != nil && ctx.Err() != nil {
					return
				}
				st.record(lat, err, classify)
			}
		}(st)
	}
	wg.Wait()
	return ctx.Err()
}
