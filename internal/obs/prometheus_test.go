package obs

import (
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// expositionLine matches one sample line of the text exposition format:
// name{labels} value, with an optional label set.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [^ ]+$`)

// checkExposition validates every line of a scrape against the
// exposition grammar: HELP/TYPE comment pairs followed by sample lines.
func checkExposition(t *testing.T, page string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(page, "\n"), "\n")
	for _, line := range lines {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("line violates exposition grammar: %q", line)
		}
	}
}

func TestWritePrometheusCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reqs_total", "Total requests.", "route", "status").With("/v1/search", "200").Add(3)
	reg.Gauge("up", "Upness.").With().Set(1)
	grown := 41.0
	reg.CounterFunc("grows_total", "Grows, counted elsewhere.", func() float64 { grown++; return grown })
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	checkExposition(t, page)
	for _, want := range []string{
		"# HELP reqs_total Total requests.\n# TYPE reqs_total counter\n",
		`reqs_total{route="/v1/search",status="200"} 3` + "\n",
		"# TYPE up gauge\nup 1\n",
		"# TYPE grows_total counter\ngrows_total 42\n", // read at scrape time
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("scrape missing %q:\n%s", want, page)
		}
	}
}

func TestWritePrometheusLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("weird_total", `Help with \ and
newline.`, "k").With("a\\b\"c\nd").Inc()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	checkExposition(t, page)
	if !strings.Contains(page, `# HELP weird_total Help with \\ and\nnewline.`+"\n") {
		t.Fatalf("HELP not escaped:\n%s", page)
	}
	if !strings.Contains(page, `weird_total{k="a\\b\"c\nd"} 1`+"\n") {
		t.Fatalf("label value not escaped:\n%s", page)
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "Latency.", []float64{0.1, 0.5, 2.5})
	for _, v := range []float64{0.05, 0.3, 0.3, 1, 100} {
		h.With().Observe(v)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	checkExposition(t, page)
	for _, want := range []string{
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.1"} 1` + "\n",
		`lat_seconds_bucket{le="0.5"} 3` + "\n",
		`lat_seconds_bucket{le="2.5"} 4` + "\n",
		`lat_seconds_bucket{le="+Inf"} 5` + "\n",
		"lat_seconds_sum 101.65\n",
		"lat_seconds_count 5\n",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("scrape missing %q:\n%s", want, page)
		}
	}
	// +Inf bucket must equal _count exactly.
	inf := extractValue(t, page, `lat_seconds_bucket{le="+Inf"}`)
	count := extractValue(t, page, "lat_seconds_count")
	if inf != count {
		t.Fatalf("+Inf bucket %v != _count %v", inf, count)
	}
}

func extractValue(t *testing.T, page, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, prefix+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, prefix+" "), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no line with prefix %q:\n%s", prefix, page)
	return 0
}

func TestWritePrometheusDeterministicOrder(t *testing.T) {
	// Families sort by name and cells by label key regardless of
	// registration order, so two scrapes of identical state are
	// byte-identical (the floatfold/maporder discipline applied to
	// metric export).
	reg := NewRegistry()
	reg.Counter("zzz_total", "Z.", "k").With("b").Inc()
	reg.Counter("aaa_total", "A.").With().Inc()
	reg.Counter("zzz_total", "Z.", "k").With("a").Inc()
	var first, second strings.Builder
	if err := reg.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatal("two scrapes of identical state differ")
	}
	page := first.String()
	if strings.Index(page, "# HELP aaa_total") > strings.Index(page, "# HELP zzz_total") {
		t.Fatalf("families not sorted by name:\n%s", page)
	}
	if strings.Index(page, `zzz_total{k="a"}`) > strings.Index(page, `zzz_total{k="b"}`) {
		t.Fatalf("cells not sorted by label value:\n%s", page)
	}
}

func TestHandlerMergesRegistriesWithoutDuplicates(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("shared_total", "Shared.").With().Add(7)
	b.Counter("shared_total", "Shared.").With().Add(100) // shadowed by a's
	b.Counter("only_b_total", "B.").With().Inc()
	rec := httptest.NewRecorder()
	Handler(a, b).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	page := rec.Body.String()
	checkExposition(t, page)
	if got := strings.Count(page, "# TYPE shared_total counter"); got != 1 {
		t.Fatalf("shared family emitted %d times, want 1:\n%s", got, page)
	}
	if !strings.Contains(page, "shared_total 7\n") {
		t.Fatalf("first registry's cell must win:\n%s", page)
	}
	if !strings.Contains(page, "only_b_total 1\n") {
		t.Fatalf("second registry's unique family missing:\n%s", page)
	}
}

func TestDefaultRegistryRuntimeGauges(t *testing.T) {
	var b strings.Builder
	if err := Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	checkExposition(t, page)
	for _, name := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_gc_cycles_total"} {
		if !strings.Contains(page, "# TYPE "+name+" gauge\n") {
			t.Fatalf("Default() missing runtime gauge %s:\n%s", name, page)
		}
	}
}
