package table

import (
	"os"
	"testing"
)

// FuzzExtractHTML feeds ExtractHTML whatever bytes a saved web page could
// hold: it and the relational screen over its output never panic, and
// every table it returns is regular (Validate accepts it).
func FuzzExtractHTML(f *testing.F) {
	// The htmlextract example's source holds its demo page verbatim, and
	// the scanner finds the page's tables in it just the same.
	demo, err := os.ReadFile("../../examples/htmlextract/main.go")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(demo))
	const body = `<table><tr><td>a</td><td>b</td></tr><tr><td>c</td><td>d</td></tr></table>`
	f.Add("\xff\xff\xff\xff" + body)
	f.Add("İİİİİİ" + body + " and some text after it")
	f.Fuzz(func(t *testing.T, doc string) {
		tables := ExtractHTML(doc, "p")
		for _, tab := range tables {
			if err := tab.Validate(); err != nil {
				t.Fatalf("table %s: %v: %q", tab.ID, err, tab.Cells)
			}
		}
		FilterRelational(tables)
	})
}
