package table

import (
	"fmt"
	"strings"
)

// ExtractHTML scans an HTML document for <table> elements and converts
// each into a Table, mimicking the web-crawl preprocessing of §3.2. It is
// a deliberately small hand-rolled scanner (stdlib only): it understands
// <table>, <tr>, <th>, <td>, entity escapes, and colspan/rowspan (tables
// using them are discarded, per the paper's "we discard tables that use
// merged rows, columns or cells"). Text outside tables near each table is
// captured as Context (a window of contextRunes runes before the table).
//
// Nested tables are skipped entirely — they are nearly always layout.
func ExtractHTML(doc, idPrefix string) []*Table {
	const contextRunes = 240
	var tables []*Table
	lower := lowerASCII(doc)
	pos := 0
	index := 0
	for {
		start := strings.Index(lower[pos:], "<table")
		if start < 0 {
			break
		}
		start += pos
		end := matchTableEnd(lower, start)
		if end < 0 {
			break
		}
		ctxStart := start - contextRunes*3 // bytes, generous for UTF-8
		if ctxStart < 0 {
			ctxStart = 0
		}
		context := collapseWhitespace(stripTags(doc[ctxStart:start]))
		if rs := []rune(context); len(rs) > contextRunes {
			context = string(rs[len(rs)-contextRunes:])
		}
		if t, ok := parseTableBody(doc[start:end]); ok {
			t.ID = fmt.Sprintf("%s#%d", idPrefix, index)
			t.Context = context
			tables = append(tables, t)
		}
		index++
		pos = end
	}
	return tables
}

// matchTableEnd finds the byte offset just past the </table> matching the
// <table at start, skipping balanced nested tables. Returns -1 if
// unclosed.
func matchTableEnd(lower string, start int) int {
	depth := 0
	pos := start
	for {
		nextOpen := strings.Index(lower[pos:], "<table")
		nextClose := strings.Index(lower[pos:], "</table")
		if nextClose < 0 {
			return -1
		}
		if nextOpen >= 0 && nextOpen < nextClose {
			depth++
			pos += nextOpen + len("<table")
			continue
		}
		pos += nextClose + len("</table")
		if gt := strings.IndexByte(lower[pos:], '>'); gt >= 0 {
			pos += gt + 1
		}
		depth--
		if depth == 0 {
			return pos
		}
	}
}

// parseTableBody converts the markup of one (non-nested) table element to
// a Table. ok=false when the table is irregular (merged cells, ragged
// rows, nested tables, no cells).
func parseTableBody(markup string) (*Table, bool) {
	if strings.Contains(lowerASCII(markup[1:]), "<table") {
		return nil, false // nested table: layout markup
	}
	type row struct {
		cells    []string
		isHeader bool
	}
	var rows []row
	var cur *row
	var cellBuf strings.Builder
	inCell := false
	cellIsTH := false

	flushCell := func() {
		if inCell && cur != nil {
			cur.cells = append(cur.cells, collapseWhitespace(unescapeEntities(cellBuf.String())))
			cellBuf.Reset()
			inCell = false
		}
	}
	flushRow := func() {
		flushCell()
		if cur != nil && len(cur.cells) > 0 {
			rows = append(rows, *cur)
		}
		cur = nil
	}

	i := 0
	for i < len(markup) {
		if markup[i] != '<' {
			if inCell {
				cellBuf.WriteByte(markup[i])
			}
			i++
			continue
		}
		gt := strings.IndexByte(markup[i:], '>')
		if gt < 0 {
			break
		}
		tag := markup[i+1 : i+gt]
		i += gt + 1
		name, attrs := splitTag(tag)
		switch name {
		case "tr":
			flushRow()
			cur = &row{isHeader: true} // header until a <td> appears
		case "/tr":
			flushRow()
		case "th", "td":
			if hasMergeAttrs(attrs) {
				return nil, false // merged cells: discard table
			}
			flushCell()
			if cur == nil {
				cur = &row{isHeader: true}
			}
			inCell = true
			cellIsTH = name == "th"
			if !cellIsTH {
				cur.isHeader = false
			}
		case "/th", "/td":
			flushCell()
		case "/table":
			flushRow()
		case "br", "br/":
			if inCell {
				cellBuf.WriteByte(' ')
			}
		default:
			// Any other tag inside a cell contributes no text.
		}
	}
	flushRow()

	if len(rows) == 0 {
		return nil, false
	}
	t := &Table{}
	dataStart := 0
	if rows[0].isHeader && len(rows) > 1 {
		t.Headers = rows[0].cells
		dataStart = 1
	}
	for _, r := range rows[dataStart:] {
		t.Cells = append(t.Cells, r.cells)
	}
	if err := t.Validate(); err != nil {
		return nil, false
	}
	return t, true
}

// lowerASCII folds A–Z to a–z and keeps every other byte, so an offset
// into the result is the same offset into s. strings.ToLower does not
// keep lengths: it turns each invalid UTF-8 byte into three, and 'İ' (two
// bytes) into three.
func lowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

func splitTag(tag string) (name, attrs string) {
	tag = strings.TrimSpace(tag)
	if sp := strings.IndexAny(tag, " \t\n\r"); sp >= 0 {
		return strings.ToLower(tag[:sp]), strings.ToLower(tag[sp+1:])
	}
	return strings.ToLower(tag), ""
}

func hasMergeAttrs(attrs string) bool {
	for _, key := range []string{"colspan", "rowspan"} {
		idx := strings.Index(attrs, key)
		if idx < 0 {
			continue
		}
		rest := attrs[idx+len(key):]
		rest = strings.TrimLeft(rest, " =\"'")
		// colspan=1 is a no-op; anything else merges.
		if !strings.HasPrefix(rest, "1") || (len(rest) > 1 && rest[1] >= '0' && rest[1] <= '9') {
			return true
		}
	}
	return false
}

// stripTags removes all markup, keeping text content.
func stripTags(s string) string {
	var sb strings.Builder
	in := false
	for _, r := range s {
		switch {
		case r == '<':
			in = true
			sb.WriteByte(' ')
		case r == '>':
			in = false
		case !in:
			sb.WriteRune(r)
		}
	}
	return unescapeEntities(sb.String())
}

var entityMap = map[string]string{
	"amp": "&", "lt": "<", "gt": ">", "quot": `"`, "apos": "'",
	"nbsp": " ", "ndash": "–", "mdash": "—", "hellip": "…",
}

// unescapeEntities resolves the handful of named entities common in table
// markup plus numeric escapes.
func unescapeEntities(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '&' {
			sb.WriteByte(s[i])
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 8 {
			sb.WriteByte(s[i])
			i++
			continue
		}
		name := s[i+1 : i+semi]
		if rep, ok := entityMap[strings.ToLower(name)]; ok {
			sb.WriteString(rep)
			i += semi + 1
			continue
		}
		if strings.HasPrefix(name, "#") {
			var code int
			if _, err := fmt.Sscanf(name[1:], "%d", &code); err == nil && code > 0 {
				sb.WriteRune(rune(code))
				i += semi + 1
				continue
			}
		}
		sb.WriteByte(s[i])
		i++
	}
	return sb.String()
}

func collapseWhitespace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}
