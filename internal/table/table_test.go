package table

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
)

func demoTable() *Table {
	return &Table{
		ID:      "demo",
		Context: "books written by physicists",
		Headers: []string{"Title", "Author"},
		Cells: [][]string{
			{"Uncle Albert and the Quantum Quest", "Russell Stannard"},
			{"Relativity: The Special and the General Theory", "A. Einstein"},
		},
	}
}

func TestTableAccessors(t *testing.T) {
	tab := demoTable()
	if tab.Rows() != 2 || tab.Cols() != 2 {
		t.Fatalf("shape = %dx%d", tab.Rows(), tab.Cols())
	}
	if tab.Cell(1, 1) != "A. Einstein" {
		t.Errorf("Cell(1,1) = %q", tab.Cell(1, 1))
	}
	if tab.Header(0) != "Title" || tab.Header(5) != "" {
		t.Errorf("Header lookups wrong")
	}
	if !tab.HasHeaders() {
		t.Error("HasHeaders = false")
	}
	col := tab.Column(1)
	if len(col) != 2 || col[0] != "Russell Stannard" {
		t.Errorf("Column(1) = %v", col)
	}
	if err := tab.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateRejectsRagged(t *testing.T) {
	tab := &Table{ID: "x", Cells: [][]string{{"a", "b"}, {"c"}}}
	if err := tab.Validate(); !errors.Is(err, ErrRagged) {
		t.Fatalf("err = %v, want ErrRagged", err)
	}
	empty := &Table{ID: "y"}
	if err := empty.Validate(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
	badHeaders := &Table{ID: "z", Headers: []string{"only one"}, Cells: [][]string{{"a", "b"}}}
	if err := badHeaders.Validate(); !errors.Is(err, ErrRagged) {
		t.Fatalf("header mismatch err = %v, want ErrRagged", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	tab := demoTable()
	cp := tab.Clone()
	cp.Cells[0][0] = "mutated"
	cp.Headers[0] = "mutated"
	if tab.Cells[0][0] == "mutated" || tab.Headers[0] == "mutated" {
		t.Fatal("Clone shares storage")
	}
}

func TestNumericFraction(t *testing.T) {
	tab := &Table{
		ID: "n",
		Cells: [][]string{
			{"Einstein", "1879", "$1,000"},
			{"Bohr", "1885", "85%"},
			{"", "1887", "not a number"},
		},
	}
	if f := tab.ColumnNumericFraction(0); f != 0 {
		t.Errorf("text column fraction = %v", f)
	}
	if f := tab.ColumnNumericFraction(1); f != 1 {
		t.Errorf("year column fraction = %v", f)
	}
	if f := tab.ColumnNumericFraction(2); f < 0.6 || f > 0.7 {
		t.Errorf("mixed column fraction = %v, want 2/3", f)
	}
}

// TestNumericCellMatchesParseFloat: the digitless shortcut answers as
// ParseFloat would, on every spelling of infinity and NaN and on words
// that only start like them.
func TestNumericCellMatchesParseFloat(t *testing.T) {
	for _, s := range []string{"inf", "+Inf", "-INF", "infinity", "-Infinity", "+-inf", "--inf", "infin", "info",
		"nan", "NaN", "+nan", "-NaN", "nana", "Nadia", "Ian", "+", "-", ".", "e", "$inf%", "€NaN", "1,0,0", "0x1p-2", "1_000"} {
		_, err := strconv.ParseFloat(strings.ReplaceAll(strings.Trim(s, "$%€£"), ",", ""), 64)
		if got := isNumericCell(s); got != (err == nil) {
			t.Errorf("isNumericCell(%q) = %t, ParseFloat says %t", s, got, err == nil)
		}
	}
	if n := testing.AllocsPerRun(20, func() { isNumericCell("Russell Stannard") }); n != 0 {
		t.Errorf("isNumericCell allocates %v times on a text cell, want 0", n)
	}
}

func TestClassifyAccepts(t *testing.T) {
	if why := Classify(demoTable()); why != Accepted {
		t.Fatalf("demo table rejected: %s", why)
	}
}

func TestClassifyRejects(t *testing.T) {
	small := &Table{ID: "s", Cells: [][]string{{"a", "b"}}}
	if why := Classify(small); why != RejectTooSmall {
		t.Errorf("small: %s, want too-small", why)
	}

	prose := &Table{ID: "p", Cells: [][]string{
		{strings.Repeat("long prose ", 20), strings.Repeat("more prose ", 20)},
		{strings.Repeat("even longer ", 20), strings.Repeat("still going ", 20)},
	}}
	if why := Classify(prose); why != RejectProse {
		t.Errorf("prose: %s, want prose-cells", why)
	}

	sparse := &Table{ID: "e", Cells: [][]string{
		{"a", "", ""}, {"", "", ""}, {"", "", "b"},
	}}
	if why := Classify(sparse); why != RejectSparse {
		t.Errorf("sparse: %s, want too-many-empty-cells", why)
	}

	numeric := &Table{ID: "num", Cells: [][]string{
		{"1", "2"}, {"3", "4"}, {"5", "6"},
	}}
	if why := Classify(numeric); why != RejectNumeric {
		t.Errorf("numeric: %s, want all-numeric", why)
	}

	ragged := &Table{ID: "r", Cells: [][]string{{"a", "b"}, {"c"}}}
	if why := Classify(ragged); why != RejectRagged {
		t.Errorf("ragged: %s, want ragged", why)
	}
}

func TestFilterRelational(t *testing.T) {
	tables := []*Table{
		demoTable(),
		{ID: "tiny", Cells: [][]string{{"x"}}},
		{ID: "nums", Cells: [][]string{{"1", "2"}, {"3", "4"}}},
	}
	kept, rejected := FilterRelational(tables)
	if len(kept) != 1 || kept[0].ID != "demo" {
		t.Fatalf("kept = %v", kept)
	}
	if rejected[RejectTooSmall] != 1 || rejected[RejectNumeric] != 1 {
		t.Fatalf("rejected = %v", rejected)
	}
}

func TestReadCSV(t *testing.T) {
	in := "Title,Author\nBook One,Alice\nBook Two,Bob\n"
	tab, err := ReadCSV(strings.NewReader(in), "csv1", true)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 2 || tab.Cols() != 2 || tab.Header(0) != "Title" {
		t.Fatalf("parsed = %v", tab)
	}
	// Without header flag.
	tab2, err := ReadCSV(strings.NewReader("a,b\nc,d\n"), "csv2", false)
	if err != nil {
		t.Fatal(err)
	}
	if tab2.HasHeaders() || tab2.Rows() != 2 {
		t.Fatalf("no-header parse = %v", tab2)
	}
	// Ragged CSV must fail our validation.
	if _, err := ReadCSV(strings.NewReader("a,b\nc\n"), "bad", false); err == nil {
		t.Fatal("ragged csv accepted")
	}
}

func TestCorpusJSONRoundTrip(t *testing.T) {
	tables := []*Table{demoTable(), {
		ID:    "second",
		Cells: [][]string{{"x", "y"}, {"z", "w"}},
	}}
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, tables); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].ID != "demo" || back[0].Cell(1, 1) != "A. Einstein" {
		t.Fatalf("round trip = %+v", back[0])
	}
	if back[0].Context != "books written by physicists" {
		t.Errorf("context lost: %q", back[0].Context)
	}
}

func TestExtractHTMLBasic(t *testing.T) {
	doc := `<html><body>
	<p>Albert Einstein wrote several books during his career.</p>
	<table>
	  <tr><th>Title</th><th>Author</th></tr>
	  <tr><td>Relativity</td><td>A. Einstein</td></tr>
	  <tr><td>Uncle Albert &amp; the Quantum Quest</td><td>Russell Stannard</td></tr>
	</table>
	</body></html>`
	tables := ExtractHTML(doc, "page1")
	if len(tables) != 1 {
		t.Fatalf("extracted %d tables", len(tables))
	}
	tab := tables[0]
	if tab.Header(0) != "Title" || tab.Header(1) != "Author" {
		t.Errorf("headers = %v", tab.Headers)
	}
	if tab.Rows() != 2 || tab.Cell(1, 0) != "Uncle Albert & the Quantum Quest" {
		t.Errorf("cells = %v", tab.Cells)
	}
	if !strings.Contains(tab.Context, "Einstein wrote several books") {
		t.Errorf("context = %q", tab.Context)
	}
	if tab.ID != "page1#0" {
		t.Errorf("id = %q", tab.ID)
	}
}

func TestExtractHTMLNoHeader(t *testing.T) {
	doc := `<table><tr><td>a</td><td>b</td></tr><tr><td>c</td><td>d</td></tr></table>`
	tables := ExtractHTML(doc, "p")
	if len(tables) != 1 {
		t.Fatalf("extracted %d", len(tables))
	}
	if tables[0].HasHeaders() {
		t.Error("spurious headers")
	}
	if tables[0].Rows() != 2 {
		t.Errorf("rows = %d", tables[0].Rows())
	}
}

func TestExtractHTMLRejectsMergedCells(t *testing.T) {
	doc := `<table><tr><td colspan="2">merged</td></tr><tr><td>a</td><td>b</td></tr></table>`
	if tables := ExtractHTML(doc, "p"); len(tables) != 0 {
		t.Fatalf("merged-cell table accepted: %v", tables)
	}
	// colspan=1 is harmless.
	doc2 := `<table><tr><td colspan="1">a</td><td>b</td></tr><tr><td>c</td><td>d</td></tr></table>`
	if tables := ExtractHTML(doc2, "p"); len(tables) != 1 {
		t.Fatal("colspan=1 table rejected")
	}
}

func TestExtractHTMLSkipsNested(t *testing.T) {
	doc := `<table><tr><td><table><tr><td>inner</td></tr></table></td><td>x</td></tr></table>
	<table><tr><td>a</td><td>b</td></tr></table>`
	tables := ExtractHTML(doc, "p")
	if len(tables) != 1 {
		t.Fatalf("extracted %d tables, want only the non-nested one", len(tables))
	}
	if tables[0].Cell(0, 0) != "a" {
		t.Errorf("wrong table extracted: %v", tables[0].Cells)
	}
}

func TestExtractHTMLMultipleAndRagged(t *testing.T) {
	doc := `<table><tr><td>a</td><td>b</td></tr><tr><td>only one</td></tr></table>
	<table><tr><th>H1</th><th>H2</th></tr><tr><td>1</td><td>x</td></tr></table>`
	tables := ExtractHTML(doc, "p")
	if len(tables) != 1 {
		t.Fatalf("extracted %d, want 1 (ragged dropped)", len(tables))
	}
	if tables[0].Header(0) != "H1" {
		t.Errorf("kept wrong table: %v", tables[0])
	}
}

func TestExtractHTMLEntities(t *testing.T) {
	doc := `<table><tr><td>Tom &amp; Jerry</td><td>&#65;BC</td></tr>
	<tr><td>x&nbsp;y</td><td>&lt;tag&gt;</td></tr></table>`
	tables := ExtractHTML(doc, "p")
	if len(tables) != 1 {
		t.Fatal("no table")
	}
	if got := tables[0].Cell(0, 0); got != "Tom & Jerry" {
		t.Errorf("amp = %q", got)
	}
	if got := tables[0].Cell(0, 1); got != "ABC" {
		t.Errorf("numeric entity = %q", got)
	}
	if got := tables[0].Cell(1, 1); got != "<tag>" {
		t.Errorf("lt/gt = %q", got)
	}
}

func TestExtractHTMLBrInsideCell(t *testing.T) {
	doc := `<table><tr><td>line1<br>line2</td><td>b</td></tr><tr><td>c</td><td>d</td></tr></table>`
	tables := ExtractHTML(doc, "p")
	if len(tables) != 1 {
		t.Fatal("no table")
	}
	if got := tables[0].Cell(0, 0); got != "line1 line2" {
		t.Errorf("br handling = %q", got)
	}
}

// strings.ToLower changes the length of invalid UTF-8 (each bad byte
// becomes three) and of letters such as 'İ': tag offsets found in a
// folded copy must still be offsets into the document.
func TestExtractHTMLOffsetsSurviveCaseFolding(t *testing.T) {
	const body = `<table><tr><td>a</td><td>b</td></tr><tr><td>c</td><td>d</td></tr></table>`
	for _, doc := range []string{
		"\xff\xff\xff\xff" + body,
		"İİİİİİ" + body + " and some text after it",
	} {
		tables := ExtractHTML(doc, "p")
		if len(tables) != 1 || tables[0].Rows() != 2 || tables[0].Cell(1, 1) != "d" {
			t.Errorf("ExtractHTML(%q) = %v, want the one 2x2 table", doc, tables)
		}
	}
}

func TestExtractHTMLUnclosedTable(t *testing.T) {
	if tables := ExtractHTML("<table><tr><td>a</td></tr>", "p"); len(tables) != 0 {
		t.Fatalf("unclosed table accepted: %v", tables)
	}
}

func TestStripTags(t *testing.T) {
	got := stripTags("<p>Hello <b>world</b></p>")
	if strings.Join(strings.Fields(got), " ") != "Hello world" {
		t.Errorf("stripTags = %q", got)
	}
}
