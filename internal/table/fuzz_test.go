package table

import (
	"os"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzExtractHTML feeds ExtractHTML whatever bytes a saved web page could
// hold: it and the relational screen over its output never panic, every
// table it returns is regular (Validate accepts it), and a page of valid
// UTF-8 with no U+FFFD and no numeric escape gives no context one.
func FuzzExtractHTML(f *testing.F) {
	// The facade's ExampleExtractHTML source holds its demo page verbatim,
	// and the scanner finds the page's tables in it just the same.
	demo, err := os.ReadFile("../../example_test.go")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(demo))
	const body = `<table><tr><td>a</td><td>b</td></tr><tr><td>c</td><td>d</td></tr></table>`
	f.Add("\xff\xff\xff\xff" + body)
	f.Add("İİİİİİ" + body + " and some text after it")
	f.Add(strings.Repeat("😀", 200) + "ab" + body)
	f.Fuzz(func(t *testing.T, doc string) {
		tables := ExtractHTML(doc, "p")
		// A numeric escape may spell U+FFFD, or a code point that decodes
		// to it; anything else that puts one in a context was cut out of
		// the middle of a rune.
		clean := utf8.ValidString(doc) && !strings.ContainsRune(doc, utf8.RuneError) && !strings.Contains(doc, "&#")
		for _, tab := range tables {
			if err := tab.Validate(); err != nil {
				t.Fatalf("table %s: %v: %q", tab.ID, err, tab.Cells)
			}
			if clean && strings.ContainsRune(tab.Context, utf8.RuneError) {
				t.Fatalf("table %s: context %q holds U+FFFD, the page none", tab.ID, tab.Context)
			}
		}
		FilterRelational(tables)
	})
}
