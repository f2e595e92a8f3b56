package server

import (
	"progxe/internal/core"
)

// ExecRequest nests the run-shaping knobs of a query or subscribe request
// under one "exec" object. It is the preferred spelling; the flat top-level
// QueryRequest fields remain accepted for compatibility, but a request that
// sets both the object and any flat knob is rejected (exec_conflict) rather
// than silently merged.
type ExecRequest struct {
	// Workers requests parallel region processing with this many worker
	// goroutines (ProgXe engines only; others ignore it). Parallel runs
	// stream the exact same results in the exact same order as serial ones —
	// this knob trades CPU for latency, never determinism. 0 (the default)
	// runs serial.
	Workers int `json:"workers,omitempty"`
	// Committers requests the partitioned commit stage with this many
	// committer goroutines (effective only with workers ≥ 1). Like workers,
	// it never changes the result stream.
	Committers int `json:"committers,omitempty"`
	// Ranker selects the progressive scheduler's benefit model:
	// "benefit-cost" (the default, Equation 8 with exact ProgCount) or
	// "cardinality" (O(1) refreshes that skip ProgCount).
	Ranker string `json:"ranker,omitempty"`
}

// ExecInfo echoes the exec knobs a run was actually granted, after
// resolveExec's clamping. It appears as the "exec" object in the stream's
// run record and in /v1/runs entries — granted equals effective, so records
// stay honest.
type ExecInfo struct {
	Workers    int    `json:"workers,omitempty"`
	Committers int    `json:"committers,omitempty"`
	Ranker     string `json:"ranker,omitempty"`
}

// resolveExec reconciles a request's exec knobs — nested or legacy flat —
// against the server caps. It is the single place clamp-vs-reject semantics
// live:
//
//   - Setting both the "exec" object and any flat knob is rejected
//     (exec_conflict): a silent merge would make one spelling win
//     arbitrarily.
//   - Negative workers clamp to 0 — zero and "no parallelism" coincide, so
//     every negative has a meaningful reading.
//   - Negative committers are rejected (bad_exec): they have no meaningful
//     reading below zero.
//   - Values above the server caps (MaxRunWorkers, MaxRunCommitters) are
//     clamped, not rejected — parallelism changes latency, never results,
//     so over-asking is harmless.
//   - Committers are zeroed on serial runs: the engine would ignore them.
//   - An unknown ranker is rejected (bad_exec); the echoed ExecInfo always
//     carries the resolved ranker name.
func (s *Server) resolveExec(req *QueryRequest) (ExecInfo, core.RankerKind, *httpError) {
	flat := req.Workers != 0 || req.Committers != 0 || req.Ranker != ""
	if req.Exec != nil && flat {
		return ExecInfo{}, 0, httpErrorf(400, errExecConflict,
			"request sets both the exec object and legacy flat exec fields; use one spelling")
	}
	ex := ExecRequest{Workers: req.Workers, Committers: req.Committers, Ranker: req.Ranker}
	if req.Exec != nil {
		ex = *req.Exec
	}
	if ex.Committers < 0 {
		return ExecInfo{}, 0, httpErrorf(400, errBadExec, "committers must be >= 0, got %d", ex.Committers)
	}
	ranker, err := core.ParseRanker(ex.Ranker)
	if err != nil {
		return ExecInfo{}, 0, httpErrorf(400, errBadExec, "%v", err)
	}

	workers := ex.Workers
	if workers < 0 {
		workers = 0
	}
	if workers > s.cfg.MaxRunWorkers {
		workers = s.cfg.MaxRunWorkers
	}
	committers := ex.Committers
	if committers > s.cfg.MaxRunCommitters {
		committers = s.cfg.MaxRunCommitters
	}
	if workers == 0 {
		committers = 0
	}
	return ExecInfo{Workers: workers, Committers: committers, Ranker: ranker.String()}, ranker, nil
}
