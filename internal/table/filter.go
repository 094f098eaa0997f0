package table

import "strings"

// The relational-vs-formatting screen of §3.2 follows the heuristics of
// Cafarella et al. [6]: formatting tables tend to be tiny, ragged,
// dominated by long prose cells, or single-column page scaffolding.
const (
	// minRows / minCols: tables smaller than this are presentation markup.
	minRows = 2
	minCols = 2
	// maxCellLen: a relational cell is a short text segment; cells longer
	// than this (in runes) suggest prose layout.
	maxCellLen = 80
	// maxLongCellFraction: maximum fraction of cells allowed to exceed
	// maxCellLen.
	maxLongCellFraction = 0.2
	// maxEmptyFraction: maximum fraction of empty cells.
	maxEmptyFraction = 0.4
	// maxNumericTableFraction: a table where nearly every column is
	// numeric (calendars, spacer grids) is not annotatable.
	maxNumericTableFraction = 0.95
)

// RejectReason explains why a table was screened out.
type RejectReason string

// Reject reasons produced by Classify.
const (
	Accepted       RejectReason = ""
	RejectTooSmall RejectReason = "too-small"
	RejectRagged   RejectReason = "ragged"
	RejectProse    RejectReason = "prose-cells"
	RejectSparse   RejectReason = "too-many-empty-cells"
	RejectNumeric  RejectReason = "all-numeric"
)

// Classify decides whether t is a relational data table (Accepted) or a
// formatting/presentation table, returning the reason for rejection.
func Classify(t *Table) RejectReason {
	if err := t.Validate(); err != nil {
		return RejectRagged
	}
	if t.Rows() < minRows || t.Cols() < minCols {
		return RejectTooSmall
	}
	total, long, empty := 0, 0, 0
	for r := 0; r < t.Rows(); r++ {
		for c := 0; c < t.Cols(); c++ {
			total++
			s := strings.TrimSpace(t.Cell(r, c))
			if s == "" {
				empty++
			} else if len([]rune(s)) > maxCellLen {
				long++
			}
		}
	}
	if total == 0 {
		return RejectTooSmall
	}
	if float64(long)/float64(total) > maxLongCellFraction {
		return RejectProse
	}
	if float64(empty)/float64(total) > maxEmptyFraction {
		return RejectSparse
	}
	numericCols := 0
	for c := 0; c < t.Cols(); c++ {
		if t.ColumnNumericFraction(c) > 0.8 {
			numericCols++
		}
	}
	if float64(numericCols)/float64(t.Cols()) >= maxNumericTableFraction {
		return RejectNumeric
	}
	return Accepted
}

// FilterRelational screens a corpus, returning the accepted tables and a
// count of rejections per reason.
func FilterRelational(tables []*Table) (kept []*Table, rejected map[RejectReason]int) {
	rejected = make(map[RejectReason]int)
	for _, t := range tables {
		if why := Classify(t); why == Accepted {
			kept = append(kept, t)
		} else {
			rejected[why]++
		}
	}
	return kept, rejected
}
