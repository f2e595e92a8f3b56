package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
)

// execObj extracts the nested exec object from a decoded run record. Every
// run record carries one (the ranker field is always set), so a missing or
// mis-typed object is a failure, not an empty map.
func execObj(t *testing.T, run map[string]any) map[string]any {
	t.Helper()
	ex, ok := run["exec"].(map[string]any)
	if !ok {
		t.Fatalf("run record has no exec object: %v", run)
	}
	return ex
}

// TestExecObjectMatchesFlatFields pins the API redesign's compatibility
// contract: the nested exec object and the legacy flat fields are the same
// knobs, resolve through the same clamp rules, and echo identically.
func TestExecObjectMatchesFlatFields(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRunWorkers: 2, MaxRunCommitters: 2})
	q := e2eWorkload(t, ts)

	collect := func(req QueryRequest) (run map[string]any, n int) {
		t.Helper()
		resp := postQuery(t, ts, req)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query returned %d", resp.StatusCode)
		}
		recs := decodeNDJSON(t, resp.Body)
		if recs[0]["type"] != "run" {
			t.Fatalf("stream starts with %v", recs[0])
		}
		last := recs[len(recs)-1]
		if last["type"] != "stats" || last["error"] != nil {
			t.Fatalf("stats trailer = %v", last)
		}
		return recs[0], len(recs) - 2
	}

	nested, nn := collect(QueryRequest{Query: q, Engine: "progxe",
		Exec: &ExecRequest{Workers: 64, Committers: 64, Ranker: "cardinality"}})
	flat, fn := collect(QueryRequest{Query: q, Engine: "progxe",
		Workers: 64, Committers: 64, Ranker: "cardinality"})
	if nn != fn || nn == 0 {
		t.Fatalf("result counts differ: nested %d, flat %d", nn, fn)
	}
	ne, fe := execObj(t, nested), execObj(t, flat)
	for _, k := range []string{"workers", "committers", "ranker"} {
		if ne[k] != fe[k] {
			t.Fatalf("exec echo differs at %q: nested %v, flat %v", k, ne[k], fe[k])
		}
	}
	if ne["workers"] != float64(2) || ne["committers"] != float64(2) {
		t.Fatalf("caps not applied to nested exec: %v", ne)
	}
	if ne["ranker"] != "cardinality" {
		t.Fatalf("ranker echo = %v, want cardinality", ne["ranker"])
	}
}

// TestExecConflictRejected pins the anti-merge rule: a request spelling the
// knobs both ways is ambiguous and must 400 with exec_conflict — never
// silently prefer one spelling.
func TestExecConflictRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := e2eWorkload(t, ts)
	resp := postQuery(t, ts, QueryRequest{Query: q, Engine: "progxe",
		Workers: 2, Exec: &ExecRequest{Workers: 4}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("conflicting spellings returned %d, want 400", resp.StatusCode)
	}
	var rec errorRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	if rec.Type != "error" || rec.Code != errExecConflict || rec.Message == "" {
		t.Fatalf("error body = %+v, want type=error code=exec_conflict", rec)
	}
}

// TestExecNestedValidation drives resolveExec's reject paths through the
// nested spelling: negative committers and unknown rankers are bad_exec,
// not clamps.
func TestExecNestedValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := e2eWorkload(t, ts)
	for _, ex := range []ExecRequest{
		{Workers: 2, Committers: -1},
		{Ranker: "nope"},
	} {
		ex := ex
		resp := postQuery(t, ts, QueryRequest{Query: q, Engine: "progxe", Exec: &ex})
		var rec errorRecord
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
			t.Fatalf("decoding error body: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || rec.Code != errBadExec {
			t.Fatalf("exec %+v returned %d code %q, want 400 bad_exec", ex, resp.StatusCode, rec.Code)
		}
	}
}

// TestLegacySpeculateKeyIgnored pins compatibility with clients of the
// removed cross-round speculation knob: "speculate", nested under exec or
// flat, is an unknown key the decoder skips. The request succeeds, streams
// exactly the results of the same request without the key, and neither the
// stream's run record nor /v1/runs/{id} echoes it.
func TestLegacySpeculateKeyIgnored(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRunWorkers: 2, MaxRunCommitters: 2})
	q, err := json.Marshal(e2eWorkload(t, ts))
	if err != nil {
		t.Fatal(err)
	}
	// query posts a raw body and returns the result sequence, the raw run
	// record line, and the run's /v1/runs/{id} body.
	query := func(body string) (results []string, runLine, logged []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s returned %d: %s", body, resp.StatusCode, b)
		}
		lines := parseStream(t, b)
		if lines[0].Type != "run" || statsLine(t, lines).Error != "" {
			t.Fatalf("%s: malformed stream %s", body, b)
		}
		runResp, err := http.Get(ts.URL + "/v1/runs/" + lines[0].ID)
		if err != nil {
			t.Fatal(err)
		}
		logged, err = io.ReadAll(runResp.Body)
		runResp.Body.Close()
		if err != nil || runResp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/runs/%s: %d %v", lines[0].ID, runResp.StatusCode, err)
		}
		runLine, _, _ = bytes.Cut(b, []byte("\n"))
		return resultKeys(lines), runLine, logged
	}
	for _, c := range []struct{ legacy, plain string }{
		{`{"query":%s,"engine":"progxe","exec":{"workers":2,"committers":2,"speculate":2}}`,
			`{"query":%s,"engine":"progxe","exec":{"workers":2,"committers":2}}`},
		{`{"query":%s,"engine":"progxe","workers":2,"committers":2,"speculate":2}`,
			`{"query":%s,"engine":"progxe","workers":2,"committers":2}`},
	} {
		want, _, _ := query(fmt.Sprintf(c.plain, q))
		got, runLine, logged := query(fmt.Sprintf(c.legacy, q))
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("%s: %d results differ from the %d without the legacy key", c.legacy, len(got), len(want))
		}
		var rec struct{ Exec map[string]any }
		if err := json.Unmarshal(runLine, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Exec["workers"] != float64(2) || rec.Exec["committers"] != float64(2) {
			t.Fatalf("%s: granted exec %v, want workers=2 committers=2", c.legacy, rec.Exec)
		}
		for what, b := range map[string][]byte{"run record": runLine, "/v1/runs/{id}": logged} {
			if bytes.Contains(b, []byte("speculate")) {
				t.Fatalf("%s: %s echoes the legacy key: %s", c.legacy, what, b)
			}
		}
	}
}
