package webtable_test

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	webtable "repro"
	"repro/internal/search"
)

// TestSearchUnderArenaPoison runs the service-level identity checks with
// the engine's poison hook on: every released execution arena is
// overwritten with garbage before the caller sees its result, so a page
// that still pointed into one would come out wrong (see
// search.TestExecuteMatchesUnderPoison, which also shows the hook
// catching a deliberately aliasing variant). TestSearchParallelEquivalence
// must hold as it stands, and 64 goroutines each driving SearchBatch over
// one service — every execution taking and returning pooled arenas beside
// the others, under -race in CI — must each get the pages a lone Search
// gets.
func TestSearchUnderArenaPoison(t *testing.T) {
	defer search.SetArenaPoison(true)()
	t.Run("parallel equivalence", TestSearchParallelEquivalence)
	t.Run("64 goroutines of SearchBatch", func(t *testing.T) {
		w := testWorld(t)
		ctx := context.Background()
		svc, err := webtable.NewService(w.Public, webtable.WithWorkers(8))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		if _, err := svc.BuildIndex(ctx, corpusTables(w, 14), webtable.WithMethod(webtable.MethodMajority)); err != nil {
			t.Fatal(err)
		}
		reqs := liveRequests(w)
		for i := range reqs {
			reqs[i].Explain = true
		}
		page := func(res *webtable.SearchResult) []byte {
			cp := *res
			cp.Stats = nil
			out, err := json.Marshal(cp)
			if err != nil {
				t.Error(err)
			}
			return out
		}
		want := make([][]byte, len(reqs))
		for i, req := range reqs {
			res, err := svc.Search(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = page(res)
		}
		var wg sync.WaitGroup
		for g := 0; g < 64; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results, err := svc.SearchBatch(ctx, reqs)
				if err != nil {
					t.Error(err)
					return
				}
				for i, res := range results {
					if got := page(res); !bytes.Equal(got, want[i]) {
						t.Errorf("request %d: batch page diverges under poison\n got  %s\n want %s", i, got, want[i])
					}
				}
			}()
		}
		wg.Wait()
	})
}
