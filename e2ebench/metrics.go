package main

import (
	"context"
	"fmt"
	"slices"

	"progxe/internal/core"
	"progxe/internal/obs"
	"progxe/internal/query"
	"progxe/internal/smj"
)

// endToEnd reduces the timed window (and, on dashboard and adhoc, the
// subscription probe) to the end-to-end metrics.
func endToEnd(win windowResult, live loopResult, setups []setupTimes) []metric {
	t := win.loop.t
	setupS := make([]float64, len(setups))
	for i, st := range setups {
		setupS[i] = st.total.Seconds()
	}
	perStep := float64(max(win.loop.steps, 1))
	return []metric{
		{name: "ttfr_p50_ms", value: median(t.ttfr), unit: "ms", n: len(t.ttfr)},
		{name: "tt50_p50_ms", value: median(t.tt50), unit: "ms", n: len(t.tt50)},
		{name: "total_p50_ms", value: median(t.total), unit: "ms", n: len(t.total)},
		{name: "ttfr_share_p50", value: median(t.share), unit: "1", n: len(t.share)},
		{name: "qps", value: float64(win.loop.queries) / win.ws.elapsed.Seconds(), unit: "1/s", n: win.loop.queries},
		{name: "cpu_ms_per_req", value: ms(win.ws.cpu) / perStep, unit: "ms", n: win.loop.steps},
		{name: "heap_p90_mb", value: win.ws.heapP90MB, unit: "MB", n: win.ws.heapN},
		{name: "setup_s", value: median(setupS), unit: "s", n: len(setupS)},
		{name: "subscribe_ttfr_p50_ms", value: median(live.t.subTTFR), unit: "ms", n: len(live.t.subTTFR)},
		{name: "change_emit_p50_ms", value: median(live.t.emit), unit: "ms", n: len(live.t.emit)},
	}
}

func clientTails(t, live timings) []metric {
	var out []metric
	out = append(out, tails("ttfr", t.ttfr)...)
	out = append(out, tails("tt50", t.tt50)...)
	out = append(out, tails("total", t.total)...)
	out = append(out, tails("subscribe_ttfr", live.subTTFR)...)
	out = append(out, tails("change_emit", live.emit)...)
	return out
}

// jsonPhases are the engine phases reported as per-layer metrics: the ones
// every workload's replay exercises. The parallel-only phases (prefetch,
// precheck, commit-wait) are printed as diagnostics.
var jsonPhases = []string{"partition", "region-build", "prune", "space-build", "sched", "commit", "determine"}

// perLayer reduces the untraced window (service and runtime counters), the
// traced window (spans) and the library replay to the per-layer metrics.
// The second list holds diagnostics that are printed but not reported.
// windowSpans is the span count at the end of the traced window: query spans
// are taken from the window only, change spans from the probe as well.
func perLayer(win, twin windowResult, windowSpans int, setups []setupTimes, tr *tracer, rs *replayStats) (layers, diags []metric) {
	d := func(a, b int64) float64 { return float64(a - b) }
	hits := d(win.after.PlanCacheHits, win.before.PlanCacheHits)
	misses := d(win.after.PlanCacheMisses, win.before.PlanCacheMisses)
	runs := d(win.after.CoalescedRuns, win.before.CoalescedRuns)
	subs := d(win.after.CoalescedSubscribers, win.before.CoalescedSubscribers)
	steps := float64(max(win.loop.steps, 1))
	var gen, reg, warm []float64
	for _, st := range setups {
		gen = append(gen, ms(st.generate))
		reg = append(reg, ms(st.register))
		warm = append(warm, ms(st.warm))
	}
	handle := tr.durations("server.query", windowSpans)
	changes := tr.durations("server.changes", tr.mark())
	overhead := tr.serverOverhead(windowSpans)
	self := tr.selfTimes(tr.mark())
	windowSelf := tr.selfTimes(windowSpans)
	p50 := func(name string, xs []float64, unit string) metric {
		return metric{name: name, value: median(xs), unit: unit, n: len(xs)}
	}
	layers = []metric{
		p50("server.handle_ms_p50", handle, "ms"),
		p50("server.overhead_ms_p50", overhead, "ms"),
		{name: "server.plan_hit_rate", value: hits / max(hits+misses, 1), unit: "1", n: int(hits + misses)},
		{name: "server.coalesce_fanout", value: subs / max(runs, 1), unit: "1", n: int(runs)},
		{name: "server.rejected", value: d(win.after.RunsRejected, win.before.RunsRejected), unit: "count"},
		p50("server.change_ack_ms_p50", changes, "ms"),
		p50("query.parse_us_p50", rs.parseUS, "us"),
		p50("query.compile_us_p50", rs.compileUS, "us"),
		p50("core.prepare_ms_p50", rs.prepareMS, "ms"),
		p50("core.regions", rs.regions, "count"),
		p50("core.regions_pruned", rs.pruned, "count"),
		p50("core.run_ttfr_ms_p50", rs.runTTFR, "ms"),
		p50("core.run_tt50_ms_p50", rs.runTT50, "ms"),
		p50("core.run_total_ms_p50", rs.runTotal, "ms"),
		p50("core.dom_comparisons", rs.dom, "count"),
		spread("core.dom_comparisons_rerun_spread", rs.domRerun),
		p50("core.results", rs.results, "count"),
		p50("core.join_results", rs.joinRows, "count"),
	}
	for _, ph := range jsonPhases {
		layers = append(layers, p50("core.phase."+ph+"_ms", rs.phases[ph], "ms"))
	}
	layers = append(layers,
		p50("core.live_build_ms_p50", rs.liveBuildMS, "ms"),
		p50("core.live_insert_us_p50", rs.insertUS, "us"),
		p50("core.live_delete_us_p50", rs.deleteUS, "us"),
		metric{name: "core.live_retracts_per_change", value: float64(rs.retracts) / float64(max(rs.applied, 1)), unit: "1", n: rs.applied},
		p50("core.live_resident_rows", rs.resident, "count"),
		p50("feed.decode_us_p50", rs.decodeUS, "us"),
		p50("datagen.generate_ms", gen, "ms"),
		p50("server.register_ms", reg, "ms"),
		p50("setup.warmup_ms", warm, "ms"),
		metric{name: "runtime.gc_cycles_per_req", value: float64(win.ws.gcs) / steps, unit: "1", n: win.loop.steps},
		metric{name: "runtime.alloc_mb_per_req", value: float64(win.ws.allocBytes) / (1 << 20) / steps, unit: "MB", n: win.loop.steps},
		metric{name: "host.steal_pct", value: win.ws.stealPct, unit: "%"},
		metric{name: "trace.overhead_ttfr_ms", value: median(twin.loop.t.ttfr) - median(win.loop.t.ttfr), unit: "ms"},
		metric{name: "trace.overhead_total_ms", value: median(twin.loop.t.total) - median(win.loop.t.total), unit: "ms"},
		p50("client.self_ms_p50", windowSelf["client.request"], "ms"),
	)

	for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
		name := ph.String()
		if !slices.Contains(jsonPhases, name) {
			diags = append(diags, p50("core.phase."+name+"_ms", rs.phases[name], "ms"))
		}
		if slices.Max(rs.lanes[name]) > 0 {
			diags = append(diags, p50("core.phase."+name+"_worker_ms", rs.lanes[name], "ms"))
		}
	}
	for _, name := range []string{"replay.query", "replay.subscribe", "replay.change", "client.subscribe", "client.change"} {
		diags = append(diags, p50("self."+name+"_ms_p50", self[name], "ms"))
	}
	diags = append(diags,
		metric{name: "host.steal_pct_traced", value: twin.ws.stealPct, unit: "%"},
		metric{name: "trace.spans", value: float64(len(tr.spans)), unit: "count"},
	)
	return layers, diags
}

// spread is (max − min) / median.
func spread(name string, xs []float64) metric {
	m := metric{name: name, unit: "1", n: len(xs)}
	if len(xs) > 0 && median(xs) > 0 {
		m.value = (slices.Max(xs) - slices.Min(xs)) / median(xs)
	}
	return m
}

// rerunDom runs the workload's first request three times with its own exec
// knobs: on serial paths the comparison count repeats exactly, on the
// parallel adhoc path it is scheduling-dependent.
func (b *bench) rerunDom(rs *replayStats) error {
	p := b.qpair[0]
	pq, err := query.Parse(b.queries[0])
	if err != nil {
		return err
	}
	prob, err := pq.Compile(b.rels[2*p], b.rels[2*p+1])
	if err != nil {
		return err
	}
	ctx := context.Background()
	if b.w.pool > 0 {
		ctx = smj.WithCommitters(smj.WithParallelism(ctx, adhocExec["workers"]), adhocExec["committers"])
	}
	for i := 0; i < 3; i++ {
		var c smj.Collector
		stats, err := core.New(core.Options{}).RunContext(ctx, prob, &c)
		if err != nil {
			return fmt.Errorf("dom re-run: %w", err)
		}
		rs.domRerun = append(rs.domRerun, float64(stats.DomComparisons))
	}
	return nil
}
