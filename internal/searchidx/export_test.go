package searchidx

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/table"
)

// CheckOnePath holds the routes to a compiled segment to each other:
// BuildContext over tables and anns, DecodeSegment of that index's dump
// and DecodeSegment of what AppendSegment writes from the same tables
// are one index field for field, all three dump to the same bytes, and
// what each of them — and DecodeTables — materialises is the input.
// With strict unset, nil and empty slices of the input count as the
// same content (a corpus decoded from JSON has both).
func CheckOnePath(t testing.TB, label string, cat *catalog.Catalog, tables []*table.Table, anns []*core.Annotation, strict bool) {
	t.Helper()
	ctx := context.Background()
	built, err := BuildContext(ctx, cat, tables, anns)
	if err != nil {
		t.Fatalf("%s: build: %v", label, err)
	}
	dump := built.AppendTo([]byte("prefix"))[len("prefix"):]
	direct, err := AppendSegment(nil, tables, anns)
	if err != nil {
		t.Fatalf("%s: AppendSegment: %v", label, err)
	}
	if !bytes.Equal(direct, dump) {
		t.Errorf("%s: AppendSegment over the tables and the built index's dump differ", label)
	}
	decoded, err := DecodeSegment(ctx, cat, dump)
	if err != nil {
		t.Fatalf("%s: decode: %v", label, err)
	}
	if diff := IndexDiff(decoded, built); diff != "" {
		t.Errorf("%s: decoded index differs from the built one: %s", label, diff)
	}
	if !bytes.Equal(decoded.AppendTo(nil), dump) {
		t.Errorf("%s: dumping the decoded segment gives different bytes", label)
	}
	content := func(v any) any {
		if strict {
			return v
		}
		switch v := v.(type) {
		case *table.Table:
			return fmt.Sprintf("%q %q %v %q %q", v.ID, v.Context, v.Headers == nil, v.Headers, v.Cells)
		case *core.Annotation:
			if v == nil {
				return "none"
			}
			return fmt.Sprintf("%q %v %v %v %+v", v.TableID, v.ColumnTypes, v.CellEntities, v.Relations, v.Diag)
		}
		panic(v)
	}
	loadedTables, loadedAnns, err := DecodeTables(ctx, dump)
	if err != nil {
		t.Fatalf("%s: DecodeTables: %v", label, err)
	}
	if len(loadedTables) != len(tables) || (loadedAnns == nil) != (anns == nil) {
		t.Fatalf("%s: DecodeTables returns %d tables (annotated: %v), want %d (%v)", label, len(loadedTables), loadedAnns != nil, len(tables), anns != nil)
	}
	for i, want := range tables {
		var wantAnn, loadedAnn *core.Annotation
		if anns != nil {
			wantAnn, loadedAnn = anns[i], loadedAnns[i]
		}
		for how, got := range map[string]struct {
			t *table.Table
			a *core.Annotation
		}{
			"built":        {built.Table(i), built.Annotation(i)},
			"decoded":      {decoded.Table(i), decoded.Annotation(i)},
			"DecodeTables": {loadedTables[i], loadedAnn},
		} {
			if !reflect.DeepEqual(content(got.t), content(want)) {
				t.Errorf("%s: %s table %d = %+v, want %+v", label, how, i, got.t, want)
			}
			if !reflect.DeepEqual(content(got.a), content(wantAnn)) {
				t.Errorf("%s: %s annotation %d = %+v, want %+v", label, how, i, got.a, wantAnn)
			}
		}
	}
}

// IndexDiff names the first field in which two indexes differ — the
// blob, either dictionary, table or annotation metadata, the cell arrays
// or any posting list — or returns "" when they hold the same segment.
// Empty and nil slices are the same content. Test-only: external test
// packages compare an index decoded from a snapshot with one
// BuildContext built.
func IndexDiff(got, want *Index) string {
	same := func(a, b any) bool {
		va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
		if va.Len() == 0 && vb.Len() == 0 {
			return true
		}
		return reflect.DeepEqual(a, b)
	}
	if len(got.tables) != len(want.tables) || (got.anns == nil) != (want.anns == nil) {
		return fmt.Sprintf("%d tables (annotated: %v), want %d (%v)", len(got.tables), got.anns != nil, len(want.tables), want.anns != nil)
	}
	if got.blob != want.blob {
		return fmt.Sprintf("blob: %q, want %q", got.blob, want.blob)
	}
	for ti := range want.anns {
		if ga, wa := got.anns[ti], want.anns[ti]; ga != wa {
			return fmt.Sprintf("annotation %d: %+v, want %+v", ti, ga, wa)
		}
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"raws", got.raws, want.raws},
		{"texts", got.texts, want.texts},
		{"textTokens", got.textTokens, want.textTokens},
		{"tables", got.tables, want.tables},
		{"headers", got.headers, want.headers},
		{"spans", got.spans, want.spans},
		{"cellRaw", got.cellRaw, want.cellRaw},
		{"cellEnts", got.cellEnts, want.cellEnts},
		{"subjTypes", got.subjTypes, want.subjTypes},
		{"identity", got.identity, want.identity},
		{"annTypes", got.annTypes, want.annTypes},
		{"annRels", got.annRels, want.annRels},
		{"annGrid", got.annGrid, want.annGrid},
		{"byID", got.byID, want.byID},
	} {
		if !same(f.got, f.want) {
			return fmt.Sprintf("%s: %v, want %v", f.name, f.got, f.want)
		}
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"textRaws", got.textRaws, want.textRaws},
		{"tokenIDs", got.tokenIDs, want.tokenIDs},
		{"tokenTexts", got.tokenTexts, want.tokenTexts},
		{"headerPost", got.headerPost, want.headerPost},
		{"contextPost", got.contextPost, want.contextPost},
		{"relPairs", got.relPairs, want.relPairs},
		{"typedPairs", got.typedPairs, want.typedPairs},
		{"resident", got.resident, want.resident},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Sprintf("%s: %v, want %v", f.name, f.got, f.want)
		}
	}
	return ""
}
