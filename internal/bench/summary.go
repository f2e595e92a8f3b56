package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
)

// WriteSummary renders a markdown digest of a JSON report: the run
// environment and, when the report carries "(w=N)" and "(w=N c=M)" variants
// alongside their serial runs, the measured multicore speedup per cell — the
// tables the CI multicore job publishes into its step summary. Cells are
// matched by figure, workload, and base engine name, with the variant
// dimension (workers, committers) parsed back off the engine name; the
// serial run is the denominator of the speedup table, and the plain-parallel
// run is the denominator of the commit-parallel table, so a value above
// 1.00× is a win for the respective stage.
func WriteSummary(w io.Writer, r *JSONReport) {
	scale, procs := r.Scale, r.GoMaxProcs
	if scale == 0 {
		scale = Scale()
	}
	if procs == 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(w, "## progxe-bench results (scale %.2g, GOMAXPROCS %d)\n\n", scale, procs)

	// One arm of a cell: the measured quantities of a serial, parallel, or
	// commit-parallel run.
	type arm struct {
		ms, tt50, tt90             float64
		seqMS, workerMS            float64
		committerMS, commitFrc     float64
		workers, committers, valid int
	}
	type cell struct {
		figure, engine, workload string
		serial, parallel, commit arm
	}
	byKey := map[string]*cell{}
	var order []string
	for _, f := range r.Figures {
		for _, run := range f.Runs {
			if run.Error != "" || run.TotalMS <= 0 {
				continue
			}
			// Strip the variant suffix the derived specs append; the
			// committer dimension distinguishes the commit-parallel arm from
			// the plain-parallel one.
			var base string
			var isParallel, isCommit bool
			switch {
			case run.Committers > 0:
				base, isCommit = strings.CutSuffix(run.Engine, fmt.Sprintf(" (w=%d c=%d)", run.Workers, run.Committers))
				if !isCommit {
					continue // a committer variant under an unexpected name
				}
			case run.Workers > 0:
				base, isParallel = strings.CutSuffix(run.Engine, fmt.Sprintf(" (w=%d)", run.Workers))
				if !isParallel {
					continue // a worker variant under an unexpected name
				}
			default:
				base = run.Engine
			}
			key := fmt.Sprintf("%s|%s|%s|%d|%g", f.Figure, base, run.Dist, run.N, run.Sigma)
			c := byKey[key]
			if c == nil {
				c = &cell{figure: f.Figure, engine: base,
					workload: fmt.Sprintf("%s d=%d n=%d σ=%g", run.Dist, run.Dims, run.N, run.Sigma)}
				byKey[key] = c
				order = append(order, key)
			}
			a := &c.serial
			if isCommit {
				a = &c.commit
			} else if isParallel {
				a = &c.parallel
			}
			a.ms, a.tt50, a.tt90 = run.TotalMS, run.TT50MS, run.TT90MS
			a.seqMS, a.workerMS = run.SeqMS, run.WorkerMS
			a.committerMS, a.commitFrc = run.CommitterMS, run.SerialCommitFrac
			a.workers, a.committers, a.valid = run.Workers, run.Committers, 1
		}
	}

	var rows []*cell
	workers := 0
	for _, key := range order {
		c := byKey[key]
		if c.serial.valid == 1 && c.parallel.valid == 1 {
			rows = append(rows, c)
			workers = c.parallel.workers
		}
	}
	if len(rows) == 0 {
		fmt.Fprintln(w, "No serial/parallel run pairs to compare (run with -workers N for the speedup table).")
		return
	}

	fmt.Fprintf(w, "### Multicore speedup (w=%d vs serial)\n\n", workers)
	fmt.Fprintln(w, "| Figure | Engine | Workload | serial ms | parallel ms | speedup | TT-50% ms (s→p) | TT-90% ms (s→p) |")
	fmt.Fprintln(w, "|---|---|---|---:|---:|---:|---:|---:|")
	speedups := make([]float64, 0, len(rows))
	for _, c := range rows {
		s := c.serial.ms / c.parallel.ms
		speedups = append(speedups, s)
		fmt.Fprintf(w, "| %s | %s | %s | %.1f | %.1f | %.2f× | %.1f→%.1f | %.1f→%.1f |\n",
			c.figure, c.engine, c.workload, c.serial.ms, c.parallel.ms, s,
			c.serial.tt50, c.parallel.tt50, c.serial.tt90, c.parallel.tt90)
	}
	sort.Float64s(speedups)
	median := speedups[len(speedups)/2]
	if len(speedups)%2 == 0 {
		median = (speedups[len(speedups)/2-1] + speedups[len(speedups)/2]) / 2
	}
	fmt.Fprintf(w, "\nmedian %.2f×, best %.2f×, worst %.2f× over %d cells\n",
		median, speedups[len(speedups)-1], speedups[0], len(speedups))

	// Serial-vs-parallel attribution: the profiler's first-party numbers
	// for the parallel runs, answering how much of the wall clock is the
	// sequencer's serial commit+determine section (the parallel-commit
	// frontier) versus work the pool already offloads.
	var att []*cell
	for _, c := range rows {
		if c.parallel.seqMS > 0 {
			att = append(att, c)
		}
	}
	if len(att) > 0 {
		fmt.Fprintf(w, "\n### Serial-vs-parallel attribution (w=%d, profiler)\n\n", workers)
		fmt.Fprintln(w, "| Figure | Engine | Workload | sequencer ms | worker ms | serial commit share |")
		fmt.Fprintln(w, "|---|---|---|---:|---:|---:|")
		fracs := make([]float64, 0, len(att))
		for _, c := range att {
			fracs = append(fracs, c.parallel.commitFrc)
			fmt.Fprintf(w, "| %s | %s | %s | %.1f | %.1f | %.1f%% |\n",
				c.figure, c.engine, c.workload, c.parallel.seqMS, c.parallel.workerMS, c.parallel.commitFrc*100)
		}
		sort.Float64s(fracs)
		fmt.Fprintf(w, "\nserial commit+determine share of sequencer time: median %.1f%% over %d cells\n",
			100*fracs[len(fracs)/2], len(fracs))
	}

	// Commit-parallel comparison: the (w=N c=M) arm against the plain
	// (w=N) arm of the same cell — how much total time and serial commit
	// share the partitioned commit stage removes from the sequencer.
	var com []*cell
	committers := 0
	for _, key := range order {
		c := byKey[key]
		if c.parallel.valid == 1 && c.commit.valid == 1 {
			com = append(com, c)
			committers = c.commit.committers
		}
	}
	if len(com) == 0 {
		return
	}
	fmt.Fprintf(w, "\n### Partitioned commit (w=%d c=%d vs w=%d)\n\n", com[0].commit.workers, committers, workers)
	fmt.Fprintln(w, "| Figure | Engine | Workload | parallel ms | commit-parallel ms | speedup | committer ms | serial commit share (p→c) |")
	fmt.Fprintln(w, "|---|---|---|---:|---:|---:|---:|---:|")
	gains := make([]float64, 0, len(com))
	shares := make([]float64, 0, len(com))
	for _, c := range com {
		s := c.parallel.ms / c.commit.ms
		gains = append(gains, s)
		shares = append(shares, c.commit.commitFrc)
		fmt.Fprintf(w, "| %s | %s | %s | %.1f | %.1f | %.2f× | %.1f | %.1f%%→%.1f%% |\n",
			c.figure, c.engine, c.workload, c.parallel.ms, c.commit.ms, s,
			c.commit.committerMS, c.parallel.commitFrc*100, c.commit.commitFrc*100)
	}
	sort.Float64s(gains)
	sort.Float64s(shares)
	fmt.Fprintf(w, "\ncommit-parallel vs parallel: median %.2f×; serial commit share after partitioning: median %.1f%% over %d cells\n",
		gains[len(gains)/2], 100*shares[len(shares)/2], len(com))
}
