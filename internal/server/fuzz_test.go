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
