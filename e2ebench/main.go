// Command e2ebench is the end-to-end benchmark of the progressive query
// service: it hosts the real HTTP service in-process, drives one named
// workload through /v1/query, /v1/subscribe and the change endpoint for a
// timed window, checks every output, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) with their units. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage (from the repository root; see README.md in this directory):
//
//	bash e2ebench/run.sh --workload dashboard --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"time"

	"progxe/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: dashboard, adhoc or live")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 adds a traced window and a library replay and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 {
		return o, fmt.Errorf("unknown workload %q (want dashboard, adhoc or live)", *name)
	}
	o.workload = workloads[i]
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return o, fmt.Errorf("-seconds must be ≥ 1 and -trace 0 or 1")
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	rep, err := measure(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if !rep.correct {
		// Report the failed run; a metric without samples reads 0 here.
		out, _ := json.Marshal(rep.result())
		fmt.Fprintln(stdout, string(out))
		fmt.Fprintln(stderr, "e2ebench: output verification failed:", rep.problem)
		return 1
	}
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(stderr, "e2ebench: metric %s has no samples\n", m.name)
			return 1
		}
	}
	out, _ := json.Marshal(rep.result()) // finite numbers and strings only
	fmt.Fprintln(stdout, string(out))
	return 0
}

// report is one run's outcome.
type report struct {
	correct   bool
	problem   string
	attempted int
	failed    int
	firstErr  error
	metrics   []metric // the JSON metrics: end-to-end, or per-layer with -trace 1
}

func (r *report) result() map[string]any {
	ms := map[string]any{}
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	return map[string]any{"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": ms}
}

// flag records a verification failure; the first one is kept.
func (r *report) flag(err error) {
	if r.correct {
		r.correct, r.problem = false, err.Error()
	}
}

// windowResult is one timed window.
type windowResult struct {
	loop          loopResult
	ws            windowStats
	before, after server.Snapshot
}

// timedWindow runs the workload's loop for d and snapshots the process,
// host and service counters around it.
func (b *bench) timedWindow(ctx context.Context, s *service, d time.Duration) (windowResult, error) {
	var wr windowResult
	var err error
	runtime.GC()
	if wr.before, err = s.stats(ctx); err != nil {
		return wr, err
	}
	win := openWindow()
	until := time.Now().Add(d)
	switch b.w.name {
	case "dashboard":
		wr.loop = b.dashboard(ctx, s, until)
	case "adhoc":
		wr.loop = b.adhoc(ctx, s, until)
	case "live":
		wr.loop, err = b.live(ctx, s, until)
	}
	wr.ws = win.close()
	if err != nil {
		return wr, err
	}
	wr.after, err = s.stats(ctx)
	return wr, err
}

// stats reads the service counters from /v1/stats.
func (s *service) stats(ctx context.Context) (server.Snapshot, error) {
	var snap server.Snapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/stats", nil)
	if err != nil {
		return snap, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return snap, nil
}

// probe measures subscribe and change latency on dashboard and adhoc after
// their timed window with the live workload's cycle (change, checkpoint,
// read) over unweighted queries of the pairs' first probeDims dimensions, so
// the window itself never touches the live path.
func (b *bench) probe(ctx context.Context, s *service) (loopResult, error) {
	var l loopResult
	// Every probe read misses the plan cache (each change bumps a relation
	// version). Starting from a full cache keeps the probe stationary: on
	// dashboard the cache holds only the window's variants, and its growth
	// over the first probe cycles slowed them measurably. The first cycles
	// after the window were slower still, so they run unmeasured.
	if err := b.fillPlanCache(ctx, s); err != nil {
		return l, fmt.Errorf("probe warm-up: %w", err)
	}
	var warm loopResult
	for c := 0; c < probeWarmCycles+probeCycles; c++ {
		into := &l
		if c < probeWarmCycles {
			into = &warm
		}
		// Each cycle starts from a collected heap, so its samples do not
		// depend on where the window or the previous cycle left the GC.
		runtime.GC()
		if err := b.cycle(ctx, s, c%b.w.pairs, b.probeQ[c%b.w.pairs], into); err != nil {
			l.ops.merge(warm.ops)
			return l, err
		}
	}
	l.ops.merge(warm.ops)
	return l, nil
}

func measure(o options, out io.Writer) (*report, error) {
	// Every phase below is bounded by the window length; the context is a
	// backstop that keeps a wedged request from outliving the run budget.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	b, err := newBench(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	rep := &report{correct: true}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Set-up, several times over; the last service is the one measured.
	var (
		s      *service
		setups []setupTimes
	)
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		var st setupTimes
		if s, st, err = b.setup(ctx, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st)
	}
	defer s.close()

	fmt.Fprintf(out, "e2ebench workload=%s seed=%d seconds=%d trace=%v\n", b.w.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "record go_version %s\nrecord gomaxprocs %d\nrecord num_cpu %d\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(out, "record data %d pairs × %d rows, d=%d, %s, σ=%g\n", b.w.pairs, b.w.spec.N, b.w.spec.Dims, b.w.spec.Distribution, b.w.spec.Selectivity)
	fmt.Fprint(out, "record setups_s")
	for _, st := range setups {
		fmt.Fprintf(out, " %.4f", st.total.Seconds())
	}
	fmt.Fprintln(out)

	if b.w.name == "dashboard" {
		if err := b.buildRefs(); err != nil {
			return nil, fmt.Errorf("references: %w", err)
		}
	}
	if det, err := b.determinism(); err != nil {
		if !isMismatch(err) {
			return nil, fmt.Errorf("determinism check: %w", err)
		}
		rep.flag(err)
		fmt.Fprintln(out, "record determinism FAILED:", err)
	} else {
		fmt.Fprintln(out, "record determinism", det)
	}

	win, err := b.timedWindow(ctx, s, time.Duration(o.seconds)*time.Second)
	if err := rep.account("timed window", win.loop, err); err != nil {
		return nil, err
	}
	if b.w.name == "adhoc" {
		if err := b.recheck(win.loop.samples); err != nil {
			rep.flag(err)
		} else {
			fmt.Fprintf(out, "record adhoc re-check: %d sampled requests match the serial engine\n", len(win.loop.samples))
		}
	}
	live := win.loop
	if b.w.name != "live" {
		live, err = b.probe(ctx, s)
		if err := rep.account("probe", live, err); err != nil {
			return nil, err
		}
	}

	e2e := endToEnd(win, live, setups)
	fmt.Fprintf(out, "record host.steal_pct %.2f\n", win.ws.stealPct)
	fmt.Fprintf(out, "ops attempted=%d succeeded=%d failed=%d (window: %d queries, %d steps)\n",
		rep.attempted, rep.attempted-rep.failed, rep.failed, win.loop.queries, win.loop.steps)
	if rep.failed > 0 {
		fmt.Fprintln(out, "first failure:", rep.firstErr)
	}
	for _, m := range e2e {
		fmt.Fprintln(out, "metric", m)
	}
	for _, m := range clientTails(win.loop.t, live.t) {
		fmt.Fprintln(out, "diag  ", m)
	}

	if !o.trace {
		rep.metrics = e2e
		return rep, nil
	}

	// Traced window: same loop, with client and server spans recorded.
	b.log = &opLog{}
	tr.on.Store(true)
	twin, err := b.timedWindow(ctx, s, time.Duration(o.seconds)*time.Second)
	if err := rep.account("traced window", twin.loop, err); err != nil {
		return nil, err
	}
	windowSpans := tr.mark()
	windowOps := b.log.ops
	b.log = &opLog{}
	if b.w.name != "live" {
		tp, err := b.probe(ctx, s)
		if err := rep.account("traced probe", tp, err); err != nil {
			return nil, err
		}
	}
	probeOps := b.log.ops
	b.log = nil
	tr.on.Store(false)

	var rs replayStats
	if err := b.replay(tr, windowOps, replayQueries, &rs); err != nil {
		return nil, err
	}
	// The probe's reads are base queries, not the workload's requests: its
	// replay covers the subscribe and change layers only.
	if err := b.replay(tr, probeOps, 0, &rs); err != nil {
		return nil, err
	}
	if err := b.rerunDom(&rs); err != nil {
		return nil, err
	}
	layers, diags := perLayer(win, twin, windowSpans, setups, tr, &rs)
	for _, m := range layers {
		fmt.Fprintln(out, "layer ", m)
	}
	for _, m := range diags {
		fmt.Fprintln(out, "diag  ", m)
	}
	path := fmt.Sprintf(".bench_build/e2ebench-trace-%s-%d.json", b.w.name, o.seed)
	if err := tr.write(path); err != nil {
		fmt.Fprintln(out, "trace not written:", err)
	} else {
		fmt.Fprintln(out, "record trace", path)
	}
	fmt.Fprintf(out, "ops attempted=%d succeeded=%d failed=%d (both windows and probes)\n",
		rep.attempted, rep.attempted-rep.failed, rep.failed)
	rep.metrics = layers
	return rep, nil
}

// replayQueries bounds the query operations one library replay re-issues.
const replayQueries = 40

// account adds one loop's operations to the report. A loop that ended early
// on an error leaves partial medians: a mismatch makes the run incorrect,
// and any other error is returned and ends the run without a result.
func (r *report) account(stage string, l loopResult, err error) error {
	r.attempted += l.ops.attempted
	r.failed += l.ops.failed
	if l.ops.mismatch != nil {
		r.flag(l.ops.mismatch)
	}
	if r.firstErr == nil {
		r.firstErr = l.ops.firstErr
	}
	if err == nil {
		return nil
	}
	if r.firstErr == nil {
		r.firstErr = err
	}
	if !isMismatch(err) {
		return fmt.Errorf("%s ended early: %w", stage, err)
	}
	r.flag(err)
	return nil
}
