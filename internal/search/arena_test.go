package search

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/searchidx"
	"repro/internal/segment"
)

// aliasingPartial is ExecutePartial with the bug the poison hook exists to
// catch: it hands out the arena's own cluster slices and hit lists
// (gather with own unset) and then releases the arena under them.
func (e *Engine) aliasingPartial(ctx context.Context, req Request) ([]PartialGroup, error) {
	a := takeArena()
	defer a.release()
	return e.gather(ctx, e.plan(ctx, req, e.newStats(), a), 0, e.newStats(), a, false)
}

// emptyArenaPool drops every parked arena.
func emptyArenaPool() {
	for len(arenas.free) > 0 {
		takeArena()
	}
}

// TestExecuteMatchesUnderPoison proves that nothing an execution returns
// points into its arena. With the hook on, every release overwrites every
// pooled buffer with garbage — hits of table -1 and NaN evidence, clusters
// of entity -2 — and cuts it to nothing before the caller sees the
// result, so an aliasing page or partial is wrong the moment it is
// returned: the golden pages, partials compared against ones made with
// the hook off, and 64 goroutines executing at once (under -race a
// surviving alias is also a write racing the reader) must all still come
// out right. The last subtest runs the deliberately aliasing variant and
// requires the same comparison to fail on it.
func TestExecuteMatchesUnderPoison(t *testing.T) {
	c, tables, anns, q := partialFixture(t, 24, 7)
	ix := searchidx.New(c, tables, anns)
	eng := NewEngineOver(ix)
	ctx := context.Background()
	var reqs []Request
	for _, mode := range []Mode{Baseline, Type, TypeRel} {
		reqs = append(reqs, Request{Query: q, Mode: mode, PageSize: 3, Explain: true})
	}
	wantPages := make([]*Result, len(reqs))
	wantPartials := make([][]PartialGroup, len(reqs))
	for i, req := range reqs {
		var err error
		if wantPages[i], err = eng.Execute(ctx, req); err != nil {
			t.Fatal(err)
		}
		if wantPartials[i], _, err = eng.ExecutePartial(ctx, req, 5); err != nil {
			t.Fatal(err)
		}
		wantPages[i].Stats = nil
	}
	check := func(t *testing.T, i int) {
		res, err := eng.Execute(ctx, reqs[i])
		if err != nil {
			t.Error(err)
			return
		}
		groups, _, err := eng.ExecutePartial(ctx, reqs[i], 5)
		if err != nil {
			t.Error(err)
			return
		}
		res.Stats = nil
		if !reflect.DeepEqual(res, wantPages[i]) {
			t.Errorf("%v: page under poison diverges:\n got  %+v\n want %+v", reqs[i].Mode, res, wantPages[i])
		}
		if !reflect.DeepEqual(groups, wantPartials[i]) {
			t.Errorf("%v: partials under poison diverge:\n got  %+v\n want %+v", reqs[i].Mode, groups, wantPartials[i])
		}
	}

	defer SetArenaPoison(true)()
	t.Run("pages golden", TestPagesGolden)
	t.Run("partials", func(t *testing.T) {
		for i := range reqs {
			check(t, i)
		}
	})
	t.Run("64 goroutines", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 64; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < 8; n++ {
					check(t, (g+n)%len(reqs))
				}
			}()
		}
		wg.Wait()
	})
	t.Run("an aliasing variant is caught", func(t *testing.T) {
		for i, req := range reqs {
			got, err := eng.aliasingPartial(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 || reflect.DeepEqual(got, wantPartials[i]) {
				t.Errorf("%v: partials that alias a released arena still compare equal: the hook poisons nothing", req.Mode)
			}
		}
	})
}

// TestArenaReleasedOnceOnEveryPath cancels an execution at every one of
// its context polls in turn — before the scan, between stretches of
// rows, inside the counting pass, inside fold — Execute and
// ExecutePartial, and checks after each that the one arena the pool held
// before is the one arena it holds again: not leaked (the pool would be
// empty) and not released twice (it would hold two).
func TestArenaReleasedOnceOnEveryPath(t *testing.T) {
	ix, q := variantFixture(t, 32, 5)
	emptyArenaPool()
	eng := NewEngineOver(ix)
	if _, err := eng.Execute(context.Background(), Request{Query: q, Mode: Type}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Baseline, Type, TypeRel} {
		req := Request{Query: q, Mode: mode, PageSize: 2, Explain: true}
		for _, partial := range []bool{false, true} {
			cancelled := 0
			for after := int64(0); ; after++ {
				ctx := &countdownCtx{Context: context.Background(), after: after}
				var err error
				if partial {
					_, _, err = eng.ExecutePartial(ctx, req, 0)
				} else {
					_, err = eng.Execute(ctx, req)
				}
				if n := len(arenas.free); n != 1 {
					t.Fatalf("%v partial=%v cancelled at poll %d: %d arenas parked, want 1", mode, partial, after, n)
				}
				if err == nil {
					break
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatal(err)
				}
				if cancelled++; cancelled > 1000 {
					t.Fatal("execution never completes")
				}
			}
			if cancelled < 2 {
				t.Fatalf("%v partial=%v: only %d poll points reached", mode, partial, cancelled)
			}
		}
	}
}

// TestCompileSkipsUnreachedSegments: the E2 probe is compiled against the
// segments a candidate pair lies in and no other. The view is five
// segments of which the second and fourth hold only tables without a
// relation annotation and with other headers, so no mode schedules a pair
// there; the plan marks three segments compiled and leaves the other two
// sets unbuilt, in every mode.
func TestCompileSkipsUnreachedSegments(t *testing.T) {
	c, tables, anns, q := partialFixture(t, 10, 4)
	for _, ti := range []int{2, 3, 6, 7} {
		tables[ti].Headers = []string{"Left", "Right"}
		tables[ti].Context = "nothing of interest"
		anns[ti] = nil
	}
	store, err := segment.New(c, segment.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	for lo := 0; lo < len(tables); lo += 2 {
		if _, err := store.Add(ctx, tables[lo:lo+2], anns[lo:lo+2]); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngineOver(store.View())
	if len(e.segs) != 5 {
		t.Fatalf("view has %d segments, want 5", len(e.segs))
	}
	a := takeArena()
	defer a.release()
	for _, mode := range []Mode{Baseline, Type, TypeRel} {
		p := e.plan(ctx, Request{Query: q, Mode: mode}, e.newStats(), a)
		if len(p.pairs) == 0 {
			t.Fatalf("%v: empty plan", mode)
		}
		if want := []bool{true, false, true, false, true}; !reflect.DeepEqual(p.reached, want) {
			t.Errorf("%v: compiled the probe against segments %v, want %v", mode, p.reached, want)
		}
		for seg, reached := range p.reached {
			if built := !reflect.DeepEqual(p.sets[seg], searchidx.MatchSet{}); built != reached {
				t.Errorf("%v: segment %d: match set built = %v, reached = %v", mode, seg, built, reached)
			}
		}
		res, err := e.Execute(ctx, Request{Query: q, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.SegmentsVisited != 5 || res.Total == 0 {
			t.Errorf("%v: %d segments visited, %d answers; want 5 and some", mode, res.Stats.SegmentsVisited, res.Total)
		}
	}
}

// TestArenaStats: the pool's gauge is the capacity parked in it — zero
// with an arena out, the arena's footprint once it is back — and a
// request that outgrows its arena is counted once.
func TestArenaStats(t *testing.T) {
	emptyArenaPool()
	if parked, _ := ArenaStats(); parked != 0 {
		t.Fatalf("%d bytes parked in an empty pool", parked)
	}
	ctx := context.Background()
	small, q := allocsFixture(t, 20)
	run := func(e *Engine, q Query) (parked int64, grows uint64) {
		t.Helper()
		if _, err := e.Execute(ctx, Request{Query: q, Mode: TypeRel, PageSize: 5}); err != nil {
			t.Fatal(err)
		}
		return ArenaStats()
	}
	_, grows0 := ArenaStats()
	parked1, grows1 := run(small, q)
	if parked1 <= 0 || grows1 != grows0+1 {
		t.Fatalf("first execution: %d bytes parked, %d grows; want some and one", parked1, grows1-grows0)
	}
	if parked, grows := run(small, q); parked != parked1 || grows != grows1 {
		t.Fatalf("repeat execution: %d bytes parked (%d before), %d more grows; want no change", parked, parked1, grows-grows1)
	}
	big, bq := bigFixture(t, 6000)
	if parked, grows := run(big, bq); parked <= parked1 || grows != grows1+1 {
		t.Fatalf("larger execution: %d bytes parked (%d before), %d more grows; want more and one", parked, parked1, grows-grows1)
	}
	a := takeArena()
	if parked, _ := ArenaStats(); parked != 0 {
		t.Fatalf("%d bytes parked with the only arena out", parked)
	}
	a.release()
}
