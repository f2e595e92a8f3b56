package bench

import (
	"fmt"
	"strings"
)

// Trajectory comparison: each perf PR regenerates BENCH_<n>.json and CI
// compares it against the committed predecessor, failing on ProgXe total-
// time regressions. Raw wall-clock is not comparable across machines (the
// committed baseline and the CI runner differ), so wherever a figure cell
// carries an SSMJ run the comparison normalizes ProgXe totals by the SSMJ
// total of the same cell — SSMJ shares the join/scan substrate, making it a
// machine-speed control — and only falls back to raw totals when no control
// exists in both reports.

// Verdict is one cell-level outcome of a report comparison. A cell is
// flagged as regressed only when the normalized ratio AND the raw
// wall-clock ratio both exceed the tolerance: raw alone diverges across
// machines, and the normalized ratio alone is noisy when the control run
// is tiny — a genuine ProgXe slowdown moves both.
type Verdict struct {
	Figure     string
	Engine     string
	Cell       string  // workload cell (σ, n, d, dist, workers)
	Baseline   float64 // normalized (or raw) baseline total
	Current    float64 // normalized (or raw) current total
	Ratio      float64 // current / baseline (normalized when available)
	RawRatio   float64 // current / baseline raw wall-clock
	Normalized bool    // Ratio is SSMJ-relative
	Regressed  bool
}

// String renders the verdict as a report line.
func (v Verdict) String() string {
	mark := "✓"
	if v.Regressed {
		mark = "✗"
	}
	unit := "ms"
	if v.Normalized {
		unit = "×SSMJ"
	}
	return fmt.Sprintf("%s Fig %s %s [%s]: %.3f → %.3f %s (%.2f×, raw %.2f×)",
		mark, v.Figure, v.Engine, v.Cell, v.Baseline, v.Current, unit, v.Ratio, v.RawRatio)
}

// compareFloorMS is the raw-total floor below which a cell is excluded
// from regression gating: the figure runner measures each cell once, and a
// single-shot wall-clock under ~10ms is dominated by timer and scheduler
// noise at any tolerance worth enforcing. Scale the workloads up
// (PROGXE_BENCH_SCALE) to bring more cells above the floor. A cell is
// skipped only when BOTH sides sit under the floor — a tiny baseline that
// balloons past it still gets compared.
const compareFloorMS = 10.0

// runKey identifies one comparable run across reports.
type runKey struct {
	figure     string
	engine     string
	n          int
	dims       int
	dist       string
	sigma      float64
	workers    int
	committers int
}

// cellKey identifies a workload cell (for control lookup) ignoring engine.
type cellKey struct {
	figure string
	n      int
	dims   int
	dist   string
	sigma  float64
}

func indexRuns(r *JSONReport) (byRun map[runKey]JSONRun, control map[cellKey]float64) {
	byRun = map[runKey]JSONRun{}
	control = map[cellKey]float64{}
	for _, f := range r.Figures {
		for _, run := range f.Runs {
			if run.Error != "" {
				continue
			}
			k := runKey{f.Figure, run.Engine, run.N, run.Dims, run.Dist, run.Sigma, run.Workers, run.Committers}
			if _, dup := byRun[k]; !dup {
				byRun[k] = run
			}
			if run.Engine == "SSMJ" && run.TotalMS > 0 {
				control[cellKey{f.Figure, run.N, run.Dims, run.Dist, run.Sigma}] = run.TotalMS
			}
		}
	}
	return byRun, control
}

// CompareReports checks every ProgXe-family run present in both reports
// (same figure, workload, worker and committer count), flagging cells whose
// total time regressed by more than maxRegress (0.2 = 20%). Cells missing from
// either report are skipped: a changed scale or figure set compares
// nothing rather than comparing apples to oranges.
func CompareReports(baseline, current *JSONReport, maxRegress float64) []Verdict {
	baseRuns, baseCtl := indexRuns(baseline)
	_, curCtl := indexRuns(current)

	var out []Verdict
	for _, f := range current.Figures {
		for _, run := range f.Runs {
			if !strings.HasPrefix(run.Engine, "ProgXe") || run.Error != "" || run.TotalMS <= 0 {
				continue
			}
			k := runKey{f.Figure, run.Engine, run.N, run.Dims, run.Dist, run.Sigma, run.Workers, run.Committers}
			base, ok := baseRuns[k]
			if !ok || base.TotalMS <= 0 {
				continue
			}
			if base.TotalMS < compareFloorMS && run.TotalMS < compareFloorMS {
				continue
			}
			ck := cellKey{f.Figure, run.N, run.Dims, run.Dist, run.Sigma}
			baseTotal, curTotal := base.TotalMS, run.TotalMS
			normalized := false
			if bc, okB := baseCtl[ck]; okB {
				if cc, okC := curCtl[ck]; okC {
					baseTotal /= bc
					curTotal /= cc
					normalized = true
				}
			}
			v := Verdict{
				Figure:     f.Figure,
				Engine:     run.Engine,
				Cell:       cellLabel(run),
				Baseline:   baseTotal,
				Current:    curTotal,
				Ratio:      curTotal / baseTotal,
				RawRatio:   run.TotalMS / base.TotalMS,
				Normalized: normalized,
			}
			v.Regressed = v.Ratio > 1+maxRegress && v.RawRatio > 1+maxRegress
			out = append(out, v)
		}
	}
	return out
}

// cellLabel renders a run's workload cell, including the committer count
// only when the run used partitioned commit.
func cellLabel(run JSONRun) string {
	label := fmt.Sprintf("%s d=%d n=%d σ=%g w=%d", run.Dist, run.Dims, run.N, run.Sigma, run.Workers)
	if run.Committers > 0 {
		label += fmt.Sprintf(" c=%d", run.Committers)
	}
	return label
}

// Regressions filters a comparison down to the failing verdicts.
func Regressions(vs []Verdict) []Verdict {
	var out []Verdict
	for _, v := range vs {
		if v.Regressed {
			out = append(out, v)
		}
	}
	return out
}
