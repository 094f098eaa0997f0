package obs

import (
	"strings"
	"testing"
)

// FuzzParseSpanContext: every client request's X-Span-Context header and
// every stream frame's span context reach HTTPBase.Handle through
// ParseSpanContext. Whatever the bytes, it must not panic, its verdict
// must agree with validSpanContext, and an accepted value must be its
// two non-empty halves joined by the one '/'.
func FuzzParseSpanContext(f *testing.F) {
	for _, s := range []string{
		"req-1/3", "a/b", "", "/", "a/", "/b", "a/b/c", "a b/c", "a/\x7f", "\xc3\xa9/1", "a\t/1",
		strings.Repeat("x", MaxSpanContextLen-2) + "/1",
		strings.Repeat("x", MaxSpanContextLen-1) + "/1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		traceID, spanID, ok := ParseSpanContext(s)
		if want := validSpanContext(s); ok != want {
			t.Fatalf("ParseSpanContext(%q) ok = %v, want %v", s, ok, want)
		}
		if !ok {
			if traceID != "" || spanID != "" {
				t.Fatalf("ParseSpanContext(%q) refused it but returned %q, %q", s, traceID, spanID)
			}
			return
		}
		if traceID == "" || spanID == "" || traceID+"/"+spanID != s {
			t.Fatalf("ParseSpanContext(%q) = %q, %q", s, traceID, spanID)
		}
	})
}

// validSpanContext is the rule ParseSpanContext implements, stated
// plainly: 1 to MaxSpanContextLen bytes, each printable ASCII and not a
// space, holding exactly one '/', which is neither first nor last.
func validSpanContext(s string) bool {
	if len(s) == 0 || len(s) > MaxSpanContextLen || strings.Count(s, "/") != 1 {
		return false
	}
	for _, c := range []byte(s) {
		if c < '!' || c > '~' {
			return false
		}
	}
	i := strings.IndexByte(s, '/')
	return i > 0 && i < len(s)-1
}
