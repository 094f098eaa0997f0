// Package table models the source table corpus of §3.2: very regular
// tables (cell count = rows × columns) with optional column headers and a
// short textual context, plus the preprocessing that screens out tables
// used purely for visual formatting. Loaders accept CSV, JSON, and a
// minimal HTML subset.
package table

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Table is one source table S with m rows and n columns. Rows are relation
// instances; columns are attributes (§3.2).
type Table struct {
	// ID identifies the table within its corpus (e.g. source URL + index).
	ID string
	// Context is the short text segment captured around the table.
	Context string
	// Headers holds the header text H_c per column; empty strings when a
	// column has no header. Nil when the table has no header row at all.
	Headers []string
	// Cells is row-major cell text: Cells[r][c] = D_rc. All rows must have
	// the same length.
	Cells [][]string
}

// Errors reported by table validation.
var (
	ErrRagged = errors.New("table: ragged rows (merged cells are not supported)")
	ErrEmpty  = errors.New("table: no data cells")
)

// Rows returns m, the number of data rows.
func (t *Table) Rows() int { return len(t.Cells) }

// Cols returns n, the number of columns.
func (t *Table) Cols() int {
	if len(t.Cells) > 0 {
		return len(t.Cells[0])
	}
	return len(t.Headers)
}

// Cell returns D_rc, the text of the data cell at (r, c).
func (t *Table) Cell(r, c int) string { return t.Cells[r][c] }

// Header returns H_c, or "" when column c has no header.
func (t *Table) Header(c int) string {
	if c < len(t.Headers) {
		return t.Headers[c]
	}
	return ""
}

// HasHeaders reports whether any column has a non-empty header.
func (t *Table) HasHeaders() bool {
	for _, h := range t.Headers {
		if strings.TrimSpace(h) != "" {
			return true
		}
	}
	return false
}

// Column returns a copy of the cell texts of column c.
func (t *Table) Column(c int) []string {
	out := make([]string, t.Rows())
	for r := range t.Cells {
		out[r] = t.Cells[r][c]
	}
	return out
}

// Validate checks the regularity constraints of §3.2: rectangular shape
// (cell count is exactly rows × columns) and at least one data cell.
func (t *Table) Validate() error {
	if len(t.Cells) == 0 {
		return fmt.Errorf("%w: table %q", ErrEmpty, t.ID)
	}
	n := len(t.Cells[0])
	if n == 0 {
		return fmt.Errorf("%w: table %q", ErrEmpty, t.ID)
	}
	for r, row := range t.Cells {
		if len(row) != n {
			return fmt.Errorf("%w: table %q row %d has %d cells, want %d", ErrRagged, t.ID, r, len(row), n)
		}
	}
	if t.Headers != nil && len(t.Headers) != n {
		return fmt.Errorf("%w: table %q has %d headers for %d columns", ErrRagged, t.ID, len(t.Headers), n)
	}
	return nil
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	out := &Table{ID: t.ID, Context: t.Context}
	if t.Headers != nil {
		out.Headers = append([]string(nil), t.Headers...)
	}
	out.Cells = make([][]string, len(t.Cells))
	for r, row := range t.Cells {
		out.Cells[r] = append([]string(nil), row...)
	}
	return out
}

// String renders a compact debug view.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "table %q (%dx%d)", t.ID, t.Rows(), t.Cols())
	if t.HasHeaders() {
		sb.WriteString(" headers=[" + strings.Join(t.Headers, " | ") + "]")
	}
	return sb.String()
}

// numericRe-free numeric check: a cell is numeric if it parses as a float
// after stripping common formatting (commas, %, $, whitespace).
func isNumericCell(s string) bool {
	s = strings.TrimSpace(s)
	s = strings.Trim(s, "$%€£")
	s = strings.ReplaceAll(s, ",", "")
	if s == "" {
		return false
	}
	if !strings.ContainsAny(s, "0123456789") { // ParseFloat takes only [+-]inf(inity) and nan; its error allocates
		u := strings.TrimLeft(s, "+-")
		return strings.EqualFold(s, "nan") || len(s)-len(u) <= 1 && (strings.EqualFold(u, "inf") || strings.EqualFold(u, "infinity"))
	}
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

// ColumnNumericFraction reports the fraction of non-empty cells in column
// c that look numeric. The annotator skips mostly-numeric columns since
// catalog entities are non-numeric (the paper notes annotation time
// depends on "the number of non-numerical columns").
func (t *Table) ColumnNumericFraction(c int) float64 {
	nonEmpty, numeric := 0, 0
	for r := 0; r < t.Rows(); r++ {
		s := strings.TrimSpace(t.Cell(r, c))
		if s == "" {
			continue
		}
		nonEmpty++
		if isNumericCell(s) {
			numeric++
		}
	}
	if nonEmpty == 0 {
		return 0
	}
	return float64(numeric) / float64(nonEmpty)
}
