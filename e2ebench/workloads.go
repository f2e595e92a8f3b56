package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"time"

	"progxe/internal/core"
	"progxe/internal/datagen"
	"progxe/internal/feed"
	"progxe/internal/query"
	"progxe/internal/relation"
	"progxe/internal/smj"
)

// workload is one named traffic mix. Every workload spreads its requests
// over several independently seeded relation pairs of one shape, so a run's
// medians describe the shape rather than the skyline of one random draw.
type workload struct {
	name  string
	pairs int
	spec  datagen.Spec // N, Dims, Distribution, Selectivity; Name and Seed set per relation
	// adhoc only: distinct weighted queries in the pool (more than the
	// server's 128-entry plan cache, so every request misses).
	pool int
	// live only: changes per subscription cycle (half inserts of fresh
	// tuples, then deletes of the same tuples).
	changes int
}

var workloads = []workload{
	{name: "dashboard", pairs: 32, changes: 4,
		spec: datagen.Spec{N: 1000, Dims: 3, Distribution: datagen.AntiCorrelated, Selectivity: 0.01}},
	{name: "adhoc", pairs: 16, pool: 256, changes: 4,
		spec: datagen.Spec{N: 300, Dims: 5, Distribution: datagen.AntiCorrelated, Selectivity: 0.1}},
	{name: "live", pairs: 8, changes: 4,
		spec: datagen.Spec{N: 800, Dims: 4, Distribution: datagen.AntiCorrelated, Selectivity: 0.1}},
}

const (
	setupReps    = 7 // set-ups per run; setup_s is their median
	adhocSamples = 4 // adhoc requests re-checked against the serial engine
	// probeCycles is the number of measured subscribe/change probe cycles on
	// dashboard and adhoc: a multiple of both workloads' pair counts, so
	// every pair is probed equally often.
	probeCycles     = 32
	probeWarmCycles = 8 // unmeasured probe cycles before them
	probeDims       = 3 // dimensions of the probe's subscription query
	freshIDBase     = 1 << 40
	// planCacheSize is the serve default (128 compiled plans). Workloads
	// whose requests miss the cache fill it during warm-up, so every timed
	// miss evicts an entry and the resident heap does not grow in the window.
	planCacheSize = 128
)

// adhocExec is the exec object every adhoc request carries.
var adhocExec = map[string]int{"workers": 2, "committers": 2}

// bench holds one run's generated inputs and references.
type bench struct {
	w    workload
	seed int64
	rels []*relation.Relation // R0, T0, R1, T1, ...

	// queries are the workload's request texts: one per pair (dashboard,
	// live) or the weighted pool (adhoc). qpair maps each to its pair.
	queries []string
	qpair   []int
	bodies  [][]byte
	base    []string // unweighted query per pair: live cycles, determinism
	probeQ  []string // unweighted query per pair over at most probeDims dimensions: probes
	refs    []refSet // dashboard: the serial engine's result set per query

	script [][]feed.Change // per pair: inserts of fresh tuples, then their deletes

	log *opLog // traced runs: the operation sequence for the library replay
}

func (w workload) genPair(seed int64, p int) (r, t *relation.Relation, err error) {
	gen := func(side int, name string) (*relation.Relation, error) {
		s := w.spec
		s.Name = fmt.Sprintf("%s%d", name, p)
		s.Seed = uint64(seed)*1_000_003 + uint64(2*p+side) + 1
		return datagen.Generate(s)
	}
	if r, err = gen(0, "R"); err != nil {
		return nil, nil, err
	}
	t, err = gen(1, "T")
	return r, t, err
}

func (w workload) genData(seed int64) ([]*relation.Relation, error) {
	rels := make([]*relation.Relation, 0, 2*w.pairs)
	for p := 0; p < w.pairs; p++ {
		r, t, err := w.genPair(seed, p)
		if err != nil {
			return nil, err
		}
		rels = append(rels, r, t)
	}
	return rels, nil
}

// queryText renders a d-dimensional mapping-sum PREFERRING query over pair
// p; weights (2·d of them, left then right per dimension) may be nil.
func queryText(p, d int, weights []float64) string {
	term := func(alias string, i int, w float64) string {
		if w == 1 {
			return fmt.Sprintf("%s.a%d", alias, i)
		}
		return fmt.Sprintf("%s*%s.a%d", strconv.FormatFloat(w, 'g', -1, 64), alias, i)
	}
	sel := make([]string, d)
	pref := make([]string, d)
	for i := 0; i < d; i++ {
		wl, wr := 1.0, 1.0
		if weights != nil {
			wl, wr = weights[2*i], weights[2*i+1]
		}
		sel[i] = fmt.Sprintf("(%s + %s) AS x%d", term("r", i, wl), term("t", i, wr), i)
		pref[i] = fmt.Sprintf("LOWEST(x%d)", i)
	}
	return fmt.Sprintf("SELECT %s FROM R%d r, T%d t WHERE r.jkey = t.jkey PREFERRING %s",
		strings.Join(sel, ", "), p, p, strings.Join(pref, " AND "))
}

func queryBody(q string, exec bool, limit int) []byte {
	req := map[string]any{"query": q}
	if exec {
		req["exec"] = adhocExec
	}
	if limit > 0 {
		req["limit"] = limit
	}
	b, _ := json.Marshal(req) // strings and ints always marshal
	return b
}

// newBench generates the run's inputs from the seed: relations, request
// texts, and the live change script.
func newBench(w workload, seed int64) (*bench, error) {
	b := &bench{w: w, seed: seed}
	var err error
	if b.rels, err = w.genData(seed); err != nil {
		return nil, err
	}
	d := w.spec.Dims
	for p := 0; p < w.pairs; p++ {
		b.base = append(b.base, queryText(p, d, nil))
		b.probeQ = append(b.probeQ, queryText(p, min(d, probeDims), nil))
	}
	if w.pool > 0 {
		rng := rand.New(rand.NewPCG(uint64(seed), 0xad40c))
		seen := map[string]bool{}
		for len(b.queries) < w.pool {
			p := len(b.queries) % w.pairs
			ws := make([]float64, 2*d)
			unit := true
			for i := range ws {
				ws[i] = 1 + float64(rng.IntN(8))/8
				unit = unit && ws[i] == 1
			}
			q := queryText(p, d, ws)
			if unit || seen[q] {
				continue
			}
			seen[q] = true
			b.queries, b.qpair = append(b.queries, q), append(b.qpair, p)
		}
	} else {
		b.queries = slices.Clone(b.base)
		for p := range b.base {
			b.qpair = append(b.qpair, p)
		}
	}
	for _, q := range b.queries {
		b.bodies = append(b.bodies, queryBody(q, w.pool > 0, 0))
	}

	// Fresh tuples for the change script: same shape as the data, ids
	// beyond any generated one, alternating sides.
	for p := 0; p < w.pairs; p++ {
		s := w.spec
		s.N = w.changes / 2
		s.Name = "fresh"
		s.Seed = uint64(seed)*1_000_003 + uint64(p) + 0xf00d
		fresh, err := datagen.Generate(s)
		if err != nil {
			return nil, err
		}
		var ins, del []feed.Change
		for i, t := range fresh.Tuples {
			rel := fmt.Sprintf("%s%d", []string{"R", "T"}[i%2], p)
			id := int64(freshIDBase + i)
			ins = append(ins, feed.Change{Relation: rel, Op: feed.OpInsert, ID: id, Vals: t.Vals, JoinKey: t.JoinKey})
			del = append(del, feed.Change{Relation: rel, Op: feed.OpDelete, ID: id})
		}
		b.script = append(b.script, append(ins, del...))
	}
	return b, nil
}

// setupTimes splits one set-up into the parts setup_s covers.
type setupTimes struct {
	total, generate, register, warm time.Duration
}

// setup builds a service from scratch: server construction, catalog
// generation and registration, and the workload's warm-up.
func (b *bench) setup(ctx context.Context, tr *tracer) (*service, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	s, err := startService(tr)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	rels, err := b.w.genData(b.seed)
	if err != nil {
		s.close()
		return nil, st, err
	}
	t2 := time.Now()
	for _, r := range rels {
		if err := s.srv.Catalog().Register(r); err != nil {
			s.close()
			return nil, st, err
		}
	}
	t3 := time.Now()
	if err := b.warm(ctx, s); err != nil {
		s.close()
		return nil, st, fmt.Errorf("warm-up: %w", err)
	}
	t4 := time.Now()
	st = setupTimes{total: t4.Sub(t0), generate: t2.Sub(t1), register: t3.Sub(t2), warm: t4.Sub(t3)}
	return s, st, nil
}

// warm fills the plan cache: on dashboard with every variant, which the
// window then hits; on adhoc and live, whose timed requests all miss, with
// cheap one-dimensional first-result-only queries the window never sends.
func (b *bench) warm(ctx context.Context, s *service) error {
	if b.w.name != "dashboard" {
		return b.fillPlanCache(ctx, s)
	}
	var st stream
	for _, body := range b.bodies {
		if err := s.query(ctx, body, 0, &st); err != nil {
			return err
		}
	}
	return nil
}

// fillPlanCache sends planCacheSize distinct cheap queries over the
// workload's pairs — one dimension, first result only, about half a
// millisecond of engine time each — so the plan cache is full and every
// later miss evicts an entry instead of growing the resident heap.
func (b *bench) fillPlanCache(ctx context.Context, s *service) error {
	var st stream
	for k := 0; k < planCacheSize; k++ {
		// The two weights are the base-16 digits of k: distinct for k < 256.
		ws := []float64{1 + float64(k%16)/16, 1 + float64(k/16%16)/16}
		if err := s.query(ctx, queryBody(queryText(k%b.w.pairs, 1, ws), false, 1), 0, &st); err != nil {
			return err
		}
	}
	return nil
}

// refSet is a reference result set.
type refSet map[[2]int64]bool

func collect(q string, r, t *relation.Relation) (refSet, smj.Stats, error) {
	pq, err := query.Parse(q)
	if err != nil {
		return nil, smj.Stats{}, err
	}
	prob, err := pq.Compile(r, t)
	if err != nil {
		return nil, smj.Stats{}, err
	}
	var c smj.Collector
	stats, err := core.New(core.Options{}).Run(prob, &c)
	if err != nil {
		return nil, stats, err
	}
	ref := make(refSet, len(c.Results))
	for _, res := range c.Results {
		ref[res.Key()] = true
	}
	return ref, stats, nil
}

// mismatch is a verification failure: the run is incorrect.
type mismatch struct{ msg string }

func (m *mismatch) Error() string { return "mismatch: " + m.msg }

func isMismatch(err error) bool {
	var mm *mismatch
	return errors.As(err, &mm)
}

// checkStream checks one stream on its own: no duplicate pair, and as
// many results as the stats record reports.
func checkStream(st *stream) error {
	if len(st.pairs) != st.stats.Results {
		return &mismatch{fmt.Sprintf("stream carried %d results, stats record says %d", len(st.pairs), st.stats.Results)}
	}
	s := slices.Clone(st.pairs)
	slices.SortFunc(s, func(a, b [2]int64) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return &mismatch{fmt.Sprintf("duplicate result pair %v", s[i])}
		}
	}
	return nil
}

// checkSet checks a duplicate-free stream against a reference set.
func checkSet(pairs [][2]int64, ref map[[2]int64]bool) error {
	if len(pairs) != len(ref) {
		return &mismatch{fmt.Sprintf("%d results, reference has %d", len(pairs), len(ref))}
	}
	for _, p := range pairs {
		if !ref[p] {
			return &mismatch{fmt.Sprintf("result %v not in the reference", p)}
		}
	}
	return nil
}

// buildRefs computes the dashboard references with the serial library
// engine, one per variant.
func (b *bench) buildRefs() error {
	for i, q := range b.queries {
		p := b.qpair[i]
		ref, _, err := collect(q, b.rels[2*p], b.rels[2*p+1])
		if err != nil {
			return err
		}
		b.refs = append(b.refs, ref)
	}
	return nil
}

// loopResult is what one timed loop produced.
type loopResult struct {
	t       timings
	ops     ops
	queries int // completed /v1/query requests
	steps   int // completed loop steps (live: one change plus one read)
	samples []sampled
}

// sampled is an adhoc request kept for re-checking after the window.
type sampled struct {
	q     int
	pairs [][2]int64
}

func (l *loopResult) merge(o loopResult) {
	l.t.merge(&o.t)
	l.ops.merge(o.ops)
	l.queries += o.queries
	l.steps += o.steps
	l.samples = append(l.samples, o.samples...)
}

// request sends one query of the workload and checks it; a failure is
// counted and gives no timing.
func (b *bench) request(ctx context.Context, s *service, qi int, st *stream, l *loopResult, check func(*stream) error) {
	span := s.tr.begin()
	b.log.add(replayOp{kind: opQuery, pair: b.qpair[qi], text: b.queries[qi], exec: b.w.pool > 0})
	err := s.query(ctx, b.bodies[qi], span, st)
	s.tr.endClient(span, st, err)
	if err == nil {
		err = checkStream(st)
	}
	if err == nil && check != nil {
		err = check(st)
	}
	l.ops.record(err)
	if err == nil {
		l.t.addStream(st)
		l.queries++
		l.steps++
	}
}

// dashboard runs one closed-loop client drawing uniformly from the warm
// variants until the deadline.
func (b *bench) dashboard(ctx context.Context, s *service, until time.Time) loopResult {
	rng := rand.New(rand.NewPCG(uint64(b.seed), 0xda5b))
	var st stream
	var l loopResult
	for time.Now().Before(until) && ctx.Err() == nil {
		qi := rng.IntN(len(b.queries))
		b.request(ctx, s, qi, &st, &l, func(st *stream) error {
			if err := checkSet(st.pairs, b.refs[qi]); err != nil {
				return fmt.Errorf("dashboard variant %d: %w", qi, err)
			}
			return nil
		})
	}
	return l
}

// adhoc runs one closed-loop client through the weighted pool in order; a
// seeded sample of requests keeps its result pairs for a re-check.
func (b *bench) adhoc(ctx context.Context, s *service, until time.Time) loopResult {
	rng := rand.New(rand.NewPCG(uint64(b.seed), 0x5a3e))
	keep := map[int]bool{}
	for len(keep) < adhocSamples {
		keep[rng.IntN(4*adhocSamples)] = true
	}
	var st stream
	var l loopResult
	for i := 0; time.Now().Before(until) && ctx.Err() == nil; i++ {
		qi := i % len(b.queries)
		before := l.ops.failed
		b.request(ctx, s, qi, &st, &l, nil)
		if keep[i] && l.ops.failed == before {
			l.samples = append(l.samples, sampled{q: qi, pairs: slices.Clone(st.pairs)})
		}
	}
	return l
}

// recheck runs the sampled adhoc requests through the serial library engine.
func (b *bench) recheck(samples []sampled) error {
	if len(samples) == 0 {
		return &mismatch{"no adhoc request was sampled for the re-check"}
	}
	for _, sm := range samples {
		p := b.qpair[sm.q]
		ref, _, err := collect(b.queries[sm.q], b.rels[2*p], b.rels[2*p+1])
		if err != nil {
			return err
		}
		if err := checkSet(sm.pairs, ref); err != nil {
			return fmt.Errorf("adhoc pool entry %d: %w", sm.q, err)
		}
	}
	return nil
}

// live cycles subscriptions over the pairs until the deadline, finishing
// the round over the pairs in progress: every cycle restores the catalog it
// started from, and every pair weighs the same in the medians.
func (b *bench) live(ctx context.Context, s *service, until time.Time) (loopResult, error) {
	var l loopResult
	for c := 0; time.Now().Before(until) || c%b.w.pairs != 0; c++ {
		if err := b.cycle(ctx, s, c%b.w.pairs, b.base[c%b.w.pairs], &l); err != nil {
			return l, err
		}
	}
	return l, nil
}

// cycle subscribes to query q over pair p, applies the pair's change
// script, and detaches. Each step posts one change, waits for its
// checkpoint, and reads the same query through /v1/query; the read's result
// set must equal the subscription's net set.
func (b *bench) cycle(ctx context.Context, s *service, p int, q string, l *loopResult) error {
	body := queryBody(q, false, 0)
	span := s.tr.begin()
	b.log.add(replayOp{kind: opSubscribe, pair: p, text: q})
	sub, err := s.subscribe(ctx, body, span, len(b.script[p]))
	s.tr.finish("client.subscribe", span)
	l.ops.record(err)
	if err != nil {
		return err
	}
	if _, err := sub.await(ctx, 0); err != nil {
		l.ops.fail(err)
		_ = s.detach(ctx, sub)
		return err
	}
	sub.mu.Lock()
	l.t.subTTFR = append(l.t.subTTFR, ms(sub.ttfr))
	sub.mu.Unlock()

	var st stream
	read := func() error {
		span := s.tr.begin()
		b.log.add(replayOp{kind: opQuery, pair: p, text: q})
		err := s.query(ctx, body, span, &st)
		s.tr.endClient(span, &st, err)
		if err == nil {
			err = checkStream(&st)
		}
		if err == nil {
			err = sub.matches(st.pairs)
		}
		l.ops.record(err)
		return err
	}
	for _, ch := range b.script[p] {
		line, _ := json.Marshal(ch) // Change.MarshalJSON cannot fail on finite values
		span := s.tr.begin()
		b.log.add(replayOp{kind: opChange, pair: p, line: line})
		sent := time.Now()
		seq, err := s.change(ctx, ch.Relation, line, span)
		var at time.Time
		if err == nil {
			at, err = sub.await(ctx, seq)
		}
		s.tr.finish("client.change", span)
		l.ops.record(err)
		if err != nil {
			_ = s.detach(ctx, sub)
			return err
		}
		l.t.emit = append(l.t.emit, ms(at.Sub(sent)))
		if err := read(); err != nil {
			_ = s.detach(ctx, sub)
			return err
		}
		l.t.addStream(&st)
		l.queries++
		l.steps++
	}
	return s.detach(ctx, sub)
}

// determinism re-runs pair 0's base query serially on independently
// regenerated data: the counters must repeat exactly, and the next seed
// must give different data.
func (b *bench) determinism() (string, error) {
	_, first, err := collect(b.base[0], b.rels[0], b.rels[1])
	if err != nil {
		return "", err
	}
	r, t, err := b.w.genPair(b.seed, 0)
	if err != nil {
		return "", err
	}
	_, again, err := collect(b.base[0], r, t)
	if err != nil {
		return "", err
	}
	if first.DomComparisons != again.DomComparisons || first.ResultCount != again.ResultCount || first.Regions != again.Regions {
		return "", &mismatch{fmt.Sprintf("same-seed serial re-run differs: %+v vs %+v", first, again)}
	}
	r2, _, err := b.w.genPair(b.seed+1, 0)
	if err != nil {
		return "", err
	}
	same := len(r2.Tuples) == len(r.Tuples)
	for i := 0; same && i < len(r.Tuples); i++ {
		same = slices.Equal(r.Tuples[i].Vals, r2.Tuples[i].Vals) && r.Tuples[i].JoinKey == r2.Tuples[i].JoinKey
	}
	if same {
		return "", &mismatch{"seed+1 generated the same data"}
	}
	return fmt.Sprintf("serial pair-0 re-run repeats dom_comparisons=%d results=%d regions=%d; seed+1 data differs",
		first.DomComparisons, first.ResultCount, first.Regions), nil
}
