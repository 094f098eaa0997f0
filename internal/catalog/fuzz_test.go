package catalog_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/catalog"
)

// FuzzReadCatalogJSON: whatever bytes a catalog file could hold, ReadJSON
// either refuses them or returns a catalog, and Freeze on that catalog
// either refuses it or succeeds — never a panic. A catalog that freezes
// writes JSON that reads back to the same Snapshot and freezes again
// without changing it: Freeze adds what it needs (a root type and the
// edges to it) once.
func FuzzReadCatalogJSON(f *testing.F) {
	pub, _ := worldCatalogs(f)
	var world bytes.Buffer
	if err := pub.WriteJSON(&world); err != nil {
		f.Fatal(err)
	}
	f.Add(world.Bytes())
	for _, seed := range []string{
		``,
		`null`,
		`{}`,
		`{"types":[],"entities":[],"relations":[]}`,
		// A subtype cycle.
		`{"types":[{"name":"A","parents":[1]},{"name":"B","parents":[0]}]}`,
		`{"types":[{"name":"A","parents":[0]}]}`,
		// Duplicate names.
		`{"types":[{"name":"A"},{"name":"A"}]}`,
		`{"types":[{"name":"A"}],"entities":[{"name":"x","types":[0]},{"name":"x","types":[0]}]}`,
		`{"types":[{"name":"A"}],"relations":[{"name":"r","subject":0,"object":0},{"name":"r","subject":0,"object":0}]}`,
		// Out-of-range IDs.
		`{"types":[{"name":"A","parents":[5]}]}`,
		`{"types":[{"name":"A","parents":[-1]}]}`,
		`{"types":[{"name":"A"}],"entities":[{"name":"x","types":[9]}]}`,
		`{"types":[{"name":"A"}],"relations":[{"name":"r","subject":7,"object":0}]}`,
		`{"types":[{"name":"A"}],"entities":[{"name":"x","types":[0]}],"relations":[{"name":"r","subject":0,"object":0,"cardinality":200,"tuples":[{"Subject":0,"Object":99}]}]}`,
		// A well-formed catalog with a hand-named root, lemmas and a tuple.
		`{"types":[{"name":"Thing"},{"name":"Person","lemmas":["people"],"parents":[0]}],"entities":[{"name":"Ada","lemmas":["A. Lovelace"],"types":[1]}],"relations":[{"name":"knows","subject":1,"object":1,"cardinality":3,"tuples":[{"Subject":0,"Object":0}]}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := catalog.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if c == nil {
			t.Fatal("ReadJSON returned neither a catalog nor an error")
		}
		if err := c.Freeze(); err != nil {
			return
		}
		want := c.Snapshot()
		var out bytes.Buffer
		if err := c.WriteJSON(&out); err != nil {
			t.Fatalf("WriteJSON of a frozen catalog: %v", err)
		}
		back, err := catalog.ReadJSON(&out)
		if err != nil {
			t.Fatalf("a frozen catalog's JSON does not read back: %v\n%s", err, out.Bytes())
		}
		if got := back.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("JSON round trip changed the snapshot:\n got %+v\nwant %+v", got, want)
		}
		if err := back.Freeze(); err != nil {
			t.Fatalf("a frozen catalog's JSON does not freeze again: %v", err)
		}
		if got := back.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("freezing the read-back catalog changed its snapshot:\n got %+v\nwant %+v", got, want)
		}
	})
}
