package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"progxe/internal/relation"
)

// FuzzApplyChanges drives POST /v1/relations/{name}/changes — the network
// boundary of the change feed — with arbitrary bodies against a small
// resident relation. The invariants: no body draws a 5xx; no body gets a
// non-finite value into the catalog; and an insert carrying a non-finite
// value is always refused with 400 bad_change, in either wire format, while
// the same insert with a finite value is applied.
func FuzzApplyChanges(f *testing.F) {
	seeds := []struct {
		body string
		v    float64
	}{
		{"insert,R,10,1,0.5,0.5\ndelete,R,1\n", 0.5},
		{`{"op":"insert","id":11,"vals":[1,2],"joinKey":2}` + "\n", math.NaN()},
		{`{"op":"delete","relation":"R","id":2}`, math.Inf(1)},
		{"insert,R,12,1,NaN,1\n", math.Inf(-1)},
		{"insert,R,13,1,1e999,1\n", math.MaxFloat64},
		{`{"op":"insert","id":14,"vals":[1e999,1]}`, math.Copysign(0, -1)},
		{"insert,S,15,1,1,1\n", 0}, // names another relation
		{"delete,R,999\n", 1},      // unknown id
		{"insert,R,1,1,1,1\n", 2},  // duplicate id
		{"insert,R,16,1,1\n", 3},   // arity mismatch
		{"# comment\n\n\x00\xff\n", 4},
		{"", 5},
	}
	for _, s := range seeds {
		f.Add(s.body, s.v)
	}
	srv := New(Config{})
	base, err := relation.ReadCSV("R", strings.NewReader(tinyRightCSV))
	if err != nil {
		f.Fatal(err)
	}
	post := func(t *testing.T, body string) (int, errorRecord) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/relations/R/changes", strings.NewReader(body)))
		var e errorRecord
		if rec.Code != http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("status %d with a malformed error body %q", rec.Code, rec.Body.String())
			}
		}
		return rec.Code, e
	}
	f.Fuzz(func(t *testing.T, body string, v float64) {
		// Every input starts from the same resident relation; snapshots are
		// immutable, so re-registering the base undoes the last input.
		if err := srv.Catalog().Register(base); err != nil {
			t.Fatal(err)
		}
		if code, e := post(t, body); code >= 500 {
			t.Fatalf("body %q drew %d %+v", body, code, e)
		}

		// Two ids the body did not take, so a refusal can only be the value's.
		taken := map[int64]bool{}
		if rel, ok := srv.Catalog().Get("R"); ok {
			for _, tup := range rel.Tuples {
				taken[tup.ID] = true
			}
		}
		var ids []int64
		for id := int64(1_000_001); len(ids) < 2; id++ {
			if !taken[id] {
				ids = append(ids, id)
			}
		}
		s := strconv.FormatFloat(v, 'g', -1, 64)
		finite := !math.IsNaN(v) && !math.IsInf(v, 0)
		for i, line := range []string{
			fmt.Sprintf("insert,R,%d,1,%s,1", ids[0], s),
			fmt.Sprintf(`{"op":"insert","id":%d,"vals":[%s,1],"joinKey":1}`, ids[1], s),
		} {
			code, e := post(t, line)
			switch {
			case finite && code != http.StatusOK:
				t.Fatalf("finite insert %q (format %d) refused: %d %+v", line, i, code, e)
			case !finite && (code != http.StatusBadRequest || e.Code != errBadChange):
				t.Fatalf("non-finite insert %q (format %d) drew %d %+v, want 400 %s", line, i, code, e, errBadChange)
			}
		}

		rel, ok := srv.Catalog().Get("R")
		if !ok {
			t.Fatal("relation R left the catalog")
		}
		for _, tup := range rel.Tuples {
			for _, x := range tup.Vals {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("body %q put non-finite value %v into the catalog (tuple %d)", body, x, tup.ID)
				}
			}
		}
	})
}
