package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"progxe/internal/core"
	"progxe/internal/feed"
	"progxe/internal/mapping"
	"progxe/internal/obs"
	"progxe/internal/query"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// spanHeader carries the client span id to the server-side wrapper, so the
// server span nests under the client span of the same request.
const spanHeader = "X-E2ebench-Span"

// span is one traced interval (start == end for an instant).
type span struct {
	id, parent int64
	name       string
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory while recording is on. Every method is a
// no-op on a nil tracer, so untraced runs pay nothing.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Int64

	mu     sync.Mutex
	spans  []span
	begun  map[int64]time.Time
	engine map[int64]float64 // client span → engine elapsed ms from the stats record
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), begun: map[int64]time.Time{}, engine: map[int64]float64{}}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// begin opens a client span and returns its id (0 when not recording).
func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	id := t.next.Add(1)
	t.mu.Lock()
	t.begun[id] = time.Now()
	t.mu.Unlock()
	return id
}

func (t *tracer) finish(name string, id int64) (start time.Time, ok bool) {
	if t == nil || id == 0 {
		return time.Time{}, false
	}
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	start, ok = t.begun[id]
	delete(t.begun, id)
	if ok {
		t.spans = append(t.spans, span{id: id, name: name, start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	}
	return start, ok
}

// endClient closes a /v1/query client span and adds its milestones
// (first byte, first result, tt50) as instants.
func (t *tracer) endClient(id int64, st *stream, err error) {
	start, ok := t.finish("client.request", id)
	if !ok || err != nil || len(st.times) == 0 {
		return
	}
	at := start.Sub(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range []struct {
		name string
		d    time.Duration
	}{{"client.first_byte", st.first}, {"client.first_result", st.ttfr()}, {"client.tt50", st.tt50()}} {
		t.spans = append(t.spans, span{id: t.next.Add(1), parent: id, name: m.name, start: at + m.d, end: at + m.d})
	}
	t.engine[id] = st.stats.ElapsedMillis
}

// wrap times every request the service handles as a server span.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		name := "server.other"
		switch {
		case r.URL.Path == "/v1/query":
			name = "server.query"
		case r.URL.Path == "/v1/subscribe":
			name = "server.subscribe"
		case strings.HasSuffix(r.URL.Path, "/changes"):
			name = "server.changes"
		}
		t.add(span{id: t.next.Add(1), parent: parent, name: name, start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	})
}

// selfTimes returns, per span name, the self time of each of the first n
// spans: its duration minus the part of it its children cover, in ms.
func (t *tracer) selfTimes(n int) map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.parent != 0 && s.end > s.start {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans[:n] {
		if s.end == s.start {
			continue
		}
		cs := kids[s.id]
		slices.SortFunc(cs, func(a, b span) int { return int(a.start - b.start) })
		covered, cur := time.Duration(0), s.start
		for _, c := range cs {
			lo, hi := max(c.start, cur), min(c.end, s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.name] = append(out[s.name], ms(s.end-s.start-covered))
	}
	return out
}

// mark returns the number of spans recorded so far.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations of the spans named name among the first
// n recorded, in ms.
func (t *tracer) durations(name string, n int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans[:n] {
		if s.name == name {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// serverOverhead pairs each of the first n spans that is a server.query
// span with its client's stats record: handler time minus the engine's own
// elapsed time, in ms.
func (t *tracer) serverOverhead(n int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans[:n] {
		if e, ok := t.engine[s.parent]; ok && s.name == "server.query" {
			out = append(out, ms(s.end-s.start)-e)
		}
	}
	return out
}

// write stores the spans as a Chrome trace document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		ph := "X"
		if s.end == s.start {
			ph = "i"
		}
		root := s.parent
		if root == 0 {
			root = s.id
		}
		evs = append(evs, event{
			Name: s.name, Ph: ph, Pid: 1, Tid: root,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// The library replay: the traced window's operation sequence, re-issued
// through each layer's public calls with a span around every call.

type opKind int8

const (
	opQuery opKind = iota
	opSubscribe
	opChange
)

type replayOp struct {
	kind opKind
	pair int
	text string // query and subscribe: the query text
	exec bool   // query: sent with the adhoc exec object
	line []byte // change: the NDJSON line as posted
}

// opLog records operations in issue order; nil records nothing.
type opLog struct {
	mu  sync.Mutex
	ops []replayOp
}

func (l *opLog) add(op replayOp) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ops = append(l.ops, op)
	l.mu.Unlock()
}

// replayStats holds the per-layer numbers of a replay.
type replayStats struct {
	parseUS, compileUS, prepareMS           []float64
	runTTFR, runTT50, runTotal              []float64
	regions, pruned, dom, results, joinRows []float64
	phases                                  map[string][]float64 // sequencer-lane ms per request
	lanes                                   map[string][]float64 // worker+committer-lane ms per request

	liveBuildMS, insertUS, deleteUS, decodeUS []float64
	resident                                  []float64
	retracts, applied                         int
	domRerun                                  []float64
}

// countSink counts LiveSpace output.
type countSink struct{ results, retracts int }

func (c *countSink) Result(smj.Result)    { c.results++ }
func (c *countSink) Retract(int64, int64) { c.retracts++ }

type livePair struct {
	plan  *query.LivePlan
	space *core.LiveSpace
}

// replay re-issues ops through query.Parse / Compile, core PrepareContext /
// RunPlanContext, NewLiveSpace / ApplyInsert / ApplyDelete and
// feed.ParseLine. maxQueries bounds the query operations replayed.
func (b *bench) replay(tr *tracer, ops []replayOp, maxQueries int, rs *replayStats) error {
	if rs.phases == nil {
		rs.phases, rs.lanes = map[string][]float64{}, map[string][]float64{}
	}
	rels := slices.Clone(b.rels)
	live := map[int]*livePair{}
	queries := 0
	timed := func(name string, parent int64, f func() error) (time.Duration, error) {
		start := time.Now()
		err := f()
		end := time.Now()
		tr.add(span{id: tr.next.Add(1), parent: parent, name: name, start: start.Sub(tr.epoch), end: end.Sub(tr.epoch)})
		return end.Sub(start), err
	}
	for _, op := range ops {
		root := tr.next.Add(1)
		rootStart := time.Now()
		var err error
		switch op.kind {
		case opQuery:
			if queries >= maxQueries {
				continue
			}
			queries++
			err = b.replayQuery(tr, op, rels, root, timed, rs)
		case opSubscribe:
			err = b.replaySubscribe(op, rels, live, root, timed, rs)
		case opChange:
			err = replayChange(op, rels, live, root, timed, rs)
		}
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		tr.add(span{id: root, name: "replay." + [...]string{"query", "subscribe", "change"}[op.kind],
			start: rootStart.Sub(tr.epoch), end: time.Since(tr.epoch)})
	}
	return nil
}

type timedFunc func(name string, parent int64, f func() error) (time.Duration, error)

func (b *bench) replayQuery(tr *tracer, op replayOp, rels []*relation.Relation, root int64, timed timedFunc, rs *replayStats) error {
	text, p := op.text, op.pair
	ctx := context.Background()
	if op.exec {
		ctx = smj.WithCommitters(smj.WithParallelism(ctx, adhocExec["workers"]), adhocExec["committers"])
	}
	var (
		pq   *query.Query
		prob *smj.Problem
		pl   *core.Prepared
	)
	d, err := timed("query.parse", root, func() (err error) { pq, err = query.Parse(text); return })
	if err != nil {
		return err
	}
	rs.parseUS = append(rs.parseUS, float64(d)/1e3)
	d, err = timed("query.compile", root, func() (err error) { prob, err = pq.Compile(rels[2*p], rels[2*p+1]); return })
	if err != nil {
		return err
	}
	rs.compileUS = append(rs.compileUS, float64(d)/1e3)
	prof := obs.NewProfiler()
	eng := core.New(core.Options{Profiler: prof})
	d, err = timed("core.prepare", root, func() (err error) { pl, err = eng.PrepareContext(ctx, prob); return })
	if err != nil {
		return err
	}
	rs.prepareMS = append(rs.prepareMS, ms(d))
	regions, pruned := pl.Regions()
	rs.regions = append(rs.regions, float64(regions))
	rs.pruned = append(rs.pruned, float64(pruned))

	var times []time.Duration
	var start time.Time
	var stats smj.Stats
	sink := smj.SinkFunc(func(smj.Result) { times = append(times, time.Since(start)) })
	d, err = timed("core.run", root, func() (err error) {
		start = time.Now()
		stats, err = eng.RunPlanContext(ctx, pl, sink)
		return
	})
	if err != nil {
		return err
	}
	if len(times) == 0 {
		return fmt.Errorf("query %q produced no result", text)
	}
	rs.runTTFR = append(rs.runTTFR, ms(times[0]))
	rs.runTT50 = append(rs.runTT50, ms(times[(len(times)+1)/2-1]))
	rs.runTotal = append(rs.runTotal, ms(d))
	rs.dom = append(rs.dom, float64(stats.DomComparisons))
	rs.results = append(rs.results, float64(stats.ResultCount))
	rs.joinRows = append(rs.joinRows, float64(stats.JoinResults))
	rep := prof.Report()
	seen := map[string]bool{}
	for _, ph := range rep.Phases {
		rs.phases[ph.Phase] = append(rs.phases[ph.Phase], ph.SequencerMillis)
		rs.lanes[ph.Phase] = append(rs.lanes[ph.Phase], ph.WorkerMillis+ph.CommitterMillis)
		seen[ph.Phase] = true
	}
	for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
		if name := ph.String(); !seen[name] {
			rs.phases[name] = append(rs.phases[name], 0)
			rs.lanes[name] = append(rs.lanes[name], 0)
		}
	}
	return nil
}

func (b *bench) replaySubscribe(op replayOp, rels []*relation.Relation, live map[int]*livePair, root int64, timed timedFunc, rs *replayStats) error {
	p := op.pair
	pq, err := query.Parse(op.text)
	if err != nil {
		return err
	}
	lp := &livePair{}
	if _, err := timed("query.compile_live", root, func() (err error) {
		lp.plan, err = pq.CompileLive(rels[2*p], rels[2*p+1])
		return
	}); err != nil {
		return err
	}
	d, err := timed("core.live_build", root, func() (err error) { lp.space, err = core.NewLiveSpace(lp.plan.Problem); return })
	if err != nil {
		return err
	}
	rs.liveBuildMS = append(rs.liveBuildMS, ms(d))
	pr := lp.plan.Problem
	keys := map[int64]int{}
	for _, t := range pr.Right.Tuples {
		keys[t.JoinKey]++
	}
	join := 0
	for _, t := range pr.Left.Tuples {
		join += keys[t.JoinKey]
	}
	rs.resident = append(rs.resident, float64(len(pr.Left.Tuples)+len(pr.Right.Tuples)+join))
	live[p] = lp
	return nil
}

func replayChange(op replayOp, rels []*relation.Relation, live map[int]*livePair, root int64, timed timedFunc, rs *replayStats) error {
	var c feed.Change
	d, err := timed("feed.decode", root, func() (err error) { c, err = feed.ParseLine(string(op.line)); return })
	if err != nil {
		return err
	}
	rs.decodeUS = append(rs.decodeUS, float64(d)/1e3)
	idx := 2 * op.pair
	if rels[idx].Schema.Name != c.Relation {
		idx++
	}
	next := relation.New(rels[idx].Schema)
	for _, t := range rels[idx].Tuples {
		if t.ID != c.ID {
			next.Tuples = append(next.Tuples, t)
		}
	}
	tuple := relation.Tuple{ID: c.ID, Vals: c.Vals, JoinKey: c.JoinKey}
	if c.Op == feed.OpInsert {
		next.Tuples = append(next.Tuples, tuple)
	}
	rels[idx] = next

	lp := live[op.pair]
	if lp == nil {
		return nil
	}
	side := mapping.Left
	if lp.plan.Tables[1] == c.Relation {
		side = mapping.Right
	}
	var sink countSink
	switch c.Op {
	case feed.OpInsert:
		if pred := lp.plan.Preds[side]; pred != nil && !pred.Eval(next.Schema, tuple) {
			return nil
		}
		d, err = timed("core.live_insert", root, func() error { return lp.space.ApplyInsert(side, tuple, &sink) })
		rs.insertUS = append(rs.insertUS, float64(d)/1e3)
	case feed.OpDelete:
		if !lp.space.Has(side, c.ID) {
			return nil
		}
		d, err = timed("core.live_delete", root, func() error { return lp.space.ApplyDelete(side, c.ID, &sink) })
		rs.deleteUS = append(rs.deleteUS, float64(d)/1e3)
	}
	rs.retracts += sink.retracts
	rs.applied++
	return err
}
