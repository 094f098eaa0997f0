package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
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
