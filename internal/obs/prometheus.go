package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus writes every family in Prometheus text exposition
// format (version 0.0.4): families sorted by name, each preceded by its
// # HELP and # TYPE lines, cells sorted by label values. Sorting is the
// determinism contract — two scrapes of identical state are
// byte-identical, and diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writePrometheus(w, nil)
}

// writePrometheus emits families not already in seen, recording what it
// emits. seen may be nil (emit everything).
func (r *Registry) writePrometheus(w io.Writer, seen map[string]bool) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()
	for i, f := range fams {
		if seen != nil {
			if seen[names[i]] {
				continue
			}
			seen[names[i]] = true
		}
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

// write emits one family.
func (f *family) write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
		f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
		return err
	}
	if f.kind == kindGaugeFunc || f.kind == kindCounterFunc {
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.fn()))
		return err
	}
	f.mu.Lock()
	keys := append([]string(nil), f.keys...)
	cells := make([]any, len(keys))
	for i, k := range keys {
		cells[i] = f.cells[k]
	}
	f.mu.Unlock()
	sort.Sort(&cellOrder{keys: keys, cells: cells})
	for i, key := range keys {
		var values []string
		if key != "" || len(f.labels) > 0 {
			values = strings.Split(key, "\xff")
		}
		var err error
		switch c := cells[i].(type) {
		case *Counter:
			_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, values, "", 0),
				strconv.FormatUint(c.Value(), 10))
		case *Gauge:
			_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, values, "", 0),
				formatFloat(c.Value()))
		case *Histogram:
			err = writeHistogram(w, f.name, f.labels, values, c)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// cellOrder sorts keys and cells together by key.
type cellOrder struct {
	keys  []string
	cells []any
}

func (o *cellOrder) Len() int           { return len(o.keys) }
func (o *cellOrder) Less(i, j int) bool { return o.keys[i] < o.keys[j] }
func (o *cellOrder) Swap(i, j int) {
	o.keys[i], o.keys[j] = o.keys[j], o.keys[i]
	o.cells[i], o.cells[j] = o.cells[j], o.cells[i]
}

// writeHistogram emits the cumulative _bucket series (including +Inf),
// then _sum and _count.
func writeHistogram(w io.Writer, name string, labels, values []string, h *Histogram) error {
	var cum uint64
	for i, ub := range h.uppers {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, labelString(labels, values, "le", ub), cum); err != nil {
			return err
		}
	}
	// The +Inf bucket must equal _count exactly, even if observations
	// landed between the loads above: reuse the total.
	total := h.Count()
	if total < cum {
		total = cum
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		name, labelStringInf(labels, values), total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name,
		labelString(labels, values, "", 0), formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(labels, values, "", 0), total)
	return err
}

// labelString renders {k="v",...}; with leName non-empty an le bucket
// label is appended. Empty label sets render as nothing.
func labelString(labels, values []string, leName string, le float64) string {
	if len(labels) == 0 && leName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if leName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leName)
		b.WriteString(`="`)
		b.WriteString(formatFloat(le))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelStringInf is labelString with le="+Inf".
func labelStringInf(labels, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if len(labels) > 0 {
		b.WriteByte(',')
	}
	b.WriteString(`le="+Inf"}`)
	return b.String()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline (quotes are legal
// there).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler serves the given registries as one Prometheus text page.
// Later registries skip families an earlier one already emitted, so a
// server can merge its own registry with the process-global Default()
// without duplicate family names.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		seen := make(map[string]bool)
		for _, reg := range regs {
			if reg == nil {
				continue
			}
			if err := reg.writePrometheus(w, seen); err != nil {
				return // client gone mid-scrape; nothing to clean up
			}
		}
	})
}
