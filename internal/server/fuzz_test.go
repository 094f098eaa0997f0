package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecodeSearchRequest feeds the request decoder whatever bytes a
// client could post, behind the body cap the middleware installs. It
// answers a structured error — 400 bad_request for malformed JSON,
// unknown fields and trailing data, 413 body_too_large for a body past
// the cap — or a request that survives a re-marshal: encoding what was
// decoded and decoding that again gives the same request. It never
// panics, and it accepts nothing but one JSON value.
func FuzzDecodeSearchRequest(f *testing.F) {
	const maxBody = 512
	f.Add([]byte(`{"relation":"directed","t1":"Film","t2":"Director","e2":"whoever","mode":"typerel","page_size":5,"explain":true,"debug":true}`))
	f.Add([]byte(`{"relation":"directed","context":"films directed by","cursor":"eyJzIjowfQ","mode":"baseline"}`))
	f.Add([]byte(`{"relation":`))
	f.Add([]byte(`{"colour":"red"}`))
	f.Add([]byte(`{"e2":"x"} {"again":1}`))
	f.Add([]byte(`{"e2":"x"}` + strings.Repeat(" ", maxBody)))
	f.Add([]byte(`{"context":"` + strings.Repeat("x", maxBody) + `"}`))
	f.Add([]byte(`{}}`)) // Decoder.More is false before a closing bracket
	f.Add([]byte(`{"e2":"x"}]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"page_size":1e99}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SearchRequest
		body := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(data)), maxBody)
		err := DecodeJSON(body, &req)
		if err != nil {
			switch status, code, _ := MapError(err); {
			case status == http.StatusBadRequest && code == "bad_request":
			case status == http.StatusRequestEntityTooLarge && code == "body_too_large" && len(data) > maxBody:
			default:
				t.Fatalf("DecodeJSON(%q) = %v, mapped to %d %s", data, err, status, code)
			}
			return
		}
		if len(data) <= maxBody && !json.Valid(data) {
			t.Fatalf("DecodeJSON accepted %q, which is not one JSON value", data)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var req2 SearchRequest
		if err := DecodeJSON(bytes.NewReader(again), &req2); err != nil {
			t.Fatalf("re-marshalled request %s of %q does not decode: %v", again, data, err)
		}
		if !reflect.DeepEqual(req, req2) {
			t.Fatalf("request %q: %+v re-marshals to %+v", data, req, req2)
		}
	})
}

// FuzzAddTablesBody posts whatever bytes a client could send as the body
// of POST /v1/tables to a node over a small catalog. The node never
// panics — not in the handler, not in an annotation worker — and answers
// 200 or a structured 4xx: a JSON error body with a code. Tables that get
// in are annotated and indexed like any others, so later inputs meet a
// growing corpus (and duplicate IDs).
func FuzzAddTablesBody(f *testing.F) {
	svc, w := testService(f, 1)
	h := New(svc, WithLogger(quietLogger())).Handler()
	valid := addBody(f, extraTables(f, w, 2), "collective")
	f.Add(valid)
	f.Add(bytes.Replace(valid, []byte(`"collective"`), []byte(`"lca"`), 1))
	f.Add([]byte(`{"tables":[{"id":"a","headers":["Film","Director"],"cells":[["Smoke Film","whoever"]]}],"method":"majority"}`))
	f.Add([]byte(`{"tables":[{"id":"r","headers":["A"],"cells":[["x","y"],[]]}]}`))
	f.Add([]byte(`{"tables":[{"id":"n","cells":[["1987","3.5"],["-inf","NaN"]]}],"method":"simple"}`))
	f.Add([]byte(`{"tables":[{"id":"e","headers":[],"cells":[]}]}`))
	f.Add([]byte(`{"tables":[{"id":"u","cells":[["` + strings.Repeat("ü ", 200) + `"]]}],"method":"nonesuch"}`))
	f.Add([]byte(`{"tables":[]}`))
	f.Add([]byte(`{"tables":null,"method":7}`))
	f.Add([]byte(`{"tables":[{"id":""}]}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := postJSON(t, h, "/v1/tables", data)
		if rec.Code == http.StatusOK {
			return
		}
		var er ErrorResponse
		if rec.Code < 400 || rec.Code > 499 || json.Unmarshal(rec.Body.Bytes(), &er) != nil || er.Error.Code == "" {
			t.Fatalf("POST /v1/tables %q = %d %s, want 200 or a structured 4xx", data, rec.Code, rec.Body.String())
		}
	})
}

// FuzzAnnotateBody posts whatever bytes a client could send as the body
// of POST /v1/annotate to a node over a small catalog. The node never
// panics and answers one of two ways. One is a 200 whose body is an
// Annotation of the posted table: every cell and column index in it lies
// inside that table, and every name in it resolves in the catalog. The
// other is a structured 4xx: a JSON error body with a code.
func FuzzAnnotateBody(f *testing.F) {
	svc, w := testService(f, 1)
	h := New(svc, WithLogger(quietLogger())).Handler()
	cat := svc.Catalog()
	valid, err := json.Marshal(AnnotateRequest{Table: extraTables(f, w, 1)[0]})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, method := range []string{"majority", "lca", "simple"} {
		f.Add(bytes.Replace(valid, []byte(`{"table":`), []byte(`{"method":"`+method+`","table":`), 1))
	}
	f.Add([]byte(`{"table":{"id":"a","context":"films directed by","headers":["Film","Director"],"cells":[["Smoke Film","whoever"]]}}`))
	f.Add([]byte(`{"table":{"id":"r","headers":["A"],"cells":[["x","y"],[]]}}`))
	f.Add([]byte(`{"table":{"id":"h","headers":["A","B","C"],"cells":[["x","y"]]}}`))
	f.Add([]byte(`{"table":{"id":"n","cells":[["1987","3.5"],["-inf","NaN"]]},"method":"simple"}`))
	f.Add([]byte(`{"table":{"id":"u","cells":[["` + strings.Repeat("ü ", 200) + `"]]},"method":"nonesuch"}`))
	f.Add([]byte(`{"table":{"cells":[]}}`))
	f.Add([]byte(`{"table":null,"method":7}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := postJSON(t, h, "/v1/annotate", data)
		if rec.Code != http.StatusOK {
			var er ErrorResponse
			if rec.Code < 400 || rec.Code > 499 || json.Unmarshal(rec.Body.Bytes(), &er) != nil || er.Error.Code == "" {
				t.Fatalf("POST /v1/annotate %q = %d %s, want 200 or a structured 4xx", data, rec.Code, rec.Body.String())
			}
			return
		}
		var req AnnotateRequest
		if err := json.Unmarshal(data, &req); err != nil || req.Table == nil {
			t.Fatalf("POST /v1/annotate %q = 200 for a body that holds no table (%v)", data, err)
		}
		var ann Annotation
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ann); err != nil {
			t.Fatalf("200 body %s is not an Annotation: %v", rec.Body.String(), err)
		}
		rows, cols := len(req.Table.Cells), len(req.Table.Cells[0])
		bad := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("annotation of the %dx%d table %q: "+format, append([]any{rows, cols, data}, args...)...)
		}
		if ann.TableID != req.Table.ID {
			bad("table_id %q", ann.TableID)
		}
		for key, name := range ann.ColumnTypes {
			if c, err := strconv.Atoi(key); err != nil || c < 0 || c >= cols {
				bad("column type key %q", key)
			}
			if _, ok := cat.TypeByName(name); !ok {
				bad("column type %q is not in the catalog", name)
			}
		}
		for _, cell := range ann.Cells {
			if cell.Row < 0 || cell.Row >= rows || cell.Col < 0 || cell.Col >= cols {
				bad("cell (%d,%d)", cell.Row, cell.Col)
			}
			if _, ok := cat.EntityByName(cell.Entity); !ok {
				bad("entity %q is not in the catalog", cell.Entity)
			}
		}
		for _, rel := range ann.Relations {
			if rel.Col1 < 0 || rel.Col1 >= cols || rel.Col2 < 0 || rel.Col2 >= cols {
				bad("relation columns (%d,%d)", rel.Col1, rel.Col2)
			}
			if _, ok := cat.RelationByName(rel.Relation); !ok {
				bad("relation %q is not in the catalog", rel.Relation)
			}
		}
	})
}
