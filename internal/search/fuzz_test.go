package search

import (
	"errors"
	"math"
	"runtime"
	"testing"
)

// FuzzDecodeCursor feeds the cursor parser whatever a client could send:
// it answers ErrInvalidCursor or a rank key that survives a re-encode —
// encodeCursor(decodeCursor(s)) decodes to the same key and is its own
// re-encoding — and never panics or allocates out of proportion to the
// input (a cursor is client-controlled bytes on every search request).
func FuzzDecodeCursor(f *testing.F) {
	f.Add("")
	f.Add(encodeCursor(rankKey{score: 3, support: 2, text: "Searkax Klios Kotpum", key: "e:2"}))
	f.Add(encodeCursor(rankKey{score: math.Inf(-1), support: 0, text: "", key: "t:"}))
	for _, c := range forgedCursors() {
		f.Add(c)
	}
	f.Add("!!not-base64!!")
	f.Fuzz(func(t *testing.T, s string) {
		// The fuzz worker's own goroutines allocate now and then, so an
		// excess has to repeat to count.
		var k *rankKey
		var err error
		for attempt := 0; ; attempt++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			k, err = decodeCursor(s)
			runtime.ReadMemStats(&after)
			got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(s)+4096)
			if got <= bound {
				break
			}
			if attempt == 3 {
				t.Fatalf("decoding %d bytes allocated %d, bound %d", len(s), got, bound)
			}
		}
		if err != nil {
			if !errors.Is(err, ErrInvalidCursor) || k != nil {
				t.Fatalf("decodeCursor(%q) = %v, %v: want nil and ErrInvalidCursor", s, k, err)
			}
			return
		}
		if k == nil {
			if s != "" {
				t.Fatalf("decodeCursor(%q) = nil, nil", s)
			}
			return
		}
		again := encodeCursor(*k)
		k2, err := decodeCursor(again)
		if err != nil {
			t.Fatalf("re-encoded cursor %q of %q does not decode: %v", again, s, err)
		}
		if math.Float64bits(k2.score) != math.Float64bits(k.score) || k2.support != k.support || k2.text != k.text || k2.key != k.key {
			t.Fatalf("cursor %q: %+v re-encodes to %+v", s, *k, *k2)
		}
		if third := encodeCursor(*k2); third != again {
			t.Fatalf("cursor %q: re-encoding is not stable: %q then %q", s, again, third)
		}
	})
}
