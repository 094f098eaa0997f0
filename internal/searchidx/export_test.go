package searchidx

import (
	"fmt"
	"reflect"
)

// IndexDiff names the first field in which two indexes differ — tables,
// annotations, either dictionary, the cell arrays or any posting list —
// or returns "" when they hold the same segment. Empty and nil slices
// are the same content. Test-only: external test packages compare an
// index decoded from a snapshot with one BuildContext built.
func IndexDiff(got, want *Index) string {
	same := func(a, b any) bool {
		va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
		if va.Len() == 0 && vb.Len() == 0 {
			return true
		}
		return reflect.DeepEqual(a, b)
	}
	if len(got.Tables) != len(want.Tables) || (got.Anns == nil) != (want.Anns == nil) {
		return fmt.Sprintf("%d tables (annotated: %v), want %d (%v)", len(got.Tables), got.Anns != nil, len(want.Tables), want.Anns != nil)
	}
	for ti, t := range want.Tables {
		g := got.Tables[ti]
		if g.ID != t.ID || g.Context != t.Context || (g.Headers == nil) != (t.Headers == nil) || !same(g.Headers, t.Headers) || !reflect.DeepEqual(g.Cells, t.Cells) {
			return fmt.Sprintf("table %d: %+v, want %+v", ti, *g, *t)
		}
		if want.Anns == nil {
			continue
		}
		ga, wa := got.Anns[ti], want.Anns[ti]
		if (ga == nil) != (wa == nil) {
			return fmt.Sprintf("annotation %d: present %v, want %v", ti, ga != nil, wa != nil)
		}
		if wa == nil {
			continue
		}
		if ga.TableID != wa.TableID || ga.Diag != wa.Diag || !same(ga.ColumnTypes, wa.ColumnTypes) || !same(ga.Relations, wa.Relations) || len(ga.CellEntities) != len(wa.CellEntities) {
			return fmt.Sprintf("annotation %d: %+v, want %+v", ti, *ga, *wa)
		}
		for r := range wa.CellEntities {
			if !same(ga.CellEntities[r], wa.CellEntities[r]) {
				return fmt.Sprintf("annotation %d row %d: %v, want %v", ti, r, ga.CellEntities[r], wa.CellEntities[r])
			}
		}
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"texts", got.texts, want.texts},
		{"textTokens", got.textTokens, want.textTokens},
		{"tokenTexts", got.tokenTexts, want.tokenTexts},
		{"spans", got.spans, want.spans},
		{"cellText", got.cellText, want.cellText},
		{"cellEnts", got.cellEnts, want.cellEnts},
		{"subjTypes", got.subjTypes, want.subjTypes},
		{"identity", got.identity, want.identity},
	} {
		if !same(f.got, f.want) {
			return fmt.Sprintf("%s: %v, want %v", f.name, f.got, f.want)
		}
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"textIDs", got.textIDs, want.textIDs},
		{"tokenIDs", got.tokenIDs, want.tokenIDs},
		{"headerPost", got.headerPost, want.headerPost},
		{"contextPost", got.contextPost, want.contextPost},
		{"relPairs", got.relPairs, want.relPairs},
		{"typedPairs", got.typedPairs, want.typedPairs},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Sprintf("%s: %v, want %v", f.name, f.got, f.want)
		}
	}
	return ""
}
