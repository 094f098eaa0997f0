package experiments

import (
	"math"
	"testing"

	"repro/internal/worldgen"
)

// testEnv builds a small world shared across tests in this package.
func testEnv(t testing.TB) *Env {
	t.Helper()
	spec := worldgen.DefaultSpec()
	spec.FilmsPerGenre = 20
	spec.NovelsPerGenre = 16
	spec.PeoplePerRole = 25
	spec.AlbumCount = 25
	spec.CountryCount = 12
	spec.CitiesPerCountry = 2
	spec.LanguageCount = 10
	env, err := NewEnv(spec, 0.15) // ~5 WikiManual tables, ~56 WebManual
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env
}

func TestFigure5Shape(t *testing.T) {
	env := testEnv(t)
	rows := env.Figure5()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]worldgen.DatasetStats{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	wiki := byName["WikiManual"]
	if wiki.EntityGT == 0 || wiki.TypeGT == 0 || wiki.RelationGT == 0 {
		t.Errorf("WikiManual missing GT layers: %+v", wiki)
	}
	rel := byName["WebRelations"]
	if rel.EntityGT != 0 || rel.RelationGT == 0 {
		t.Errorf("WebRelations GT layers wrong: %+v", rel)
	}
	link := byName["WikiLink"]
	if link.TypeGT != 0 || link.EntityGT == 0 {
		t.Errorf("WikiLink GT layers wrong: %+v", link)
	}
	// WebManual must be the largest of the manual sets (371 vs 36 scaled).
	if byName["WebManual"].Tables <= wiki.Tables {
		t.Errorf("WebManual (%d) not larger than WikiManual (%d)",
			byName["WebManual"].Tables, wiki.Tables)
	}
}

func TestFigure6Shape(t *testing.T) {
	env := testEnv(t)
	r := env.Figure6()

	// The paper's headline: Collective strictly better than both
	// baselines on every dataset and task (allow ties at small scale, but
	// never strictly worse).
	for _, row := range r.Entity {
		if row.Collective < row.Majority || row.Collective < row.LCA {
			t.Errorf("entity %s: collective %.1f < baseline (LCA %.1f, Maj %.1f)",
				row.Dataset, row.Collective, row.LCA, row.Majority)
		}
		if row.Collective < 50 {
			t.Errorf("entity %s: collective accuracy %.1f%% implausibly low", row.Dataset, row.Collective)
		}
	}
	for _, row := range r.Type {
		if row.Collective < row.LCA {
			t.Errorf("type %s: collective %.1f < LCA %.1f", row.Dataset, row.Collective, row.LCA)
		}
	}
	for _, row := range r.Relation {
		if row.Collective < row.Majority {
			t.Errorf("relation %s: collective %.1f < majority %.1f",
				row.Dataset, row.Collective, row.Majority)
		}
	}

	// Clean beats noisy for type annotation (paper: WikiManual > WebManual).
	var wikiT, webT float64
	for _, row := range r.Type {
		switch row.Dataset {
		case "WikiManual":
			wikiT = row.Collective
		case "WebManual":
			webT = row.Collective
		}
	}
	// At test scale (a handful of WikiManual tables) sampling noise can
	// perturb the ordering by a few points; require it within tolerance.
	// The full-scale run (`tabeval -exp fig6`) shows the strict
	// ordering.
	if wikiT < webT-10 {
		t.Errorf("type F1: WikiManual (%.1f) << WebManual (%.1f); noise ordering inverted", wikiT, webT)
	}
}

func TestFigure7Shape(t *testing.T) {
	env := testEnv(t)
	r := env.Figure7(20)
	if r.Tables != 20 {
		t.Fatalf("tables = %d", r.Tables)
	}
	if r.AvgPerTable <= 0 {
		t.Fatal("no timing recorded")
	}
	// How wall-clock divides between the stages is a measurement, not an
	// invariant (a faster probe raises the other two shares); that the
	// three stages partition the total is.
	for _, f := range []float64{r.CandGenFrac, r.GraphFrac, r.InferenceFrac} {
		if f <= 0 || f >= 1 {
			t.Errorf("stage fractions %v / %v / %v: each must lie in (0, 1)", r.CandGenFrac, r.GraphFrac, r.InferenceFrac)
			break
		}
	}
	if sum := r.CandGenFrac + r.GraphFrac + r.InferenceFrac; math.Abs(sum-1) > 1e-9 {
		t.Errorf("stage fractions sum to %v, want 1", sum)
	}
	if len(r.PerTable) != 20 {
		t.Errorf("latency series length %d", len(r.PerTable))
	}
}

func TestFigure8Shape(t *testing.T) {
	env := testEnv(t)
	rows := env.Figure8()
	if len(rows) != 6 { // 3 modes x 2 datasets
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(mode, ds string) Fig8Row {
		for _, r := range rows {
			if r.Mode == mode && r.Dataset == ds {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", mode, ds)
		return Fig8Row{}
	}
	// Paper's finding: IDF on its own performs poorly for type labeling
	// vs 1/sqrt(dist). Allow small-sample tolerance at test scale; the
	// full-scale ordering shows in `tabeval -exp fig8` output.
	sqrtWiki := get("1/sqrt(dist)", "WikiManual")
	idfWiki := get("IDF", "WikiManual")
	if idfWiki.TypeF1 > sqrtWiki.TypeF1+10 {
		t.Errorf("IDF type F1 (%.1f) beats 1/sqrt(dist) (%.1f); ablation shape inverted",
			idfWiki.TypeF1, sqrtWiki.TypeF1)
	}
	// Entity accuracy should be in the same ballpark across modes
	// (paper: 83.9 / 84.3 / 85.4).
	if sqrtWiki.EntityAcc < 50 || idfWiki.EntityAcc < 50 {
		t.Errorf("entity accuracies too low: sqrt=%.1f idf=%.1f", sqrtWiki.EntityAcc, idfWiki.EntityAcc)
	}
}

func TestFigure9Shape(t *testing.T) {
	env := testEnv(t)
	rows := env.Figure9(60, 4)
	if len(rows) != len(worldgen.SearchRelations) {
		t.Fatalf("rows = %d, want %d", len(rows), len(worldgen.SearchRelations))
	}
	var sumB, sumT, sumTR float64
	for _, r := range rows {
		sumB += r.Baseline
		sumT += r.Type
		sumTR += r.TypeRel
	}
	// Aggregate ordering must match the paper: annotations help.
	if !(sumTR >= sumT && sumT >= sumB) {
		t.Errorf("MAP ordering violated: baseline=%.3f type=%.3f type+rel=%.3f",
			sumB/5, sumT/5, sumTR/5)
	}
	if sumTR == 0 {
		t.Error("Type+Rel found nothing; search pipeline broken")
	}
}

func TestAblationSimplified(t *testing.T) {
	env := testEnv(t)
	rows := env.AblationSimplified()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Task == "entity" && r.Collective < r.Simplified-5 {
			t.Errorf("collective entity acc (%.1f) well below simplified (%.1f)",
				r.Collective, r.Simplified)
		}
	}
}

func TestThresholdSweep(t *testing.T) {
	env := testEnv(t)
	rows := env.ThresholdSweep([]float64{0.5, 0.6, 0.8, 1.0})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TypeF1 < 0 || r.TypeF1 > 100 {
			t.Errorf("threshold %.1f: F1 %.1f out of range", r.Threshold, r.TypeF1)
		}
	}
}

func TestAblationMissingLink(t *testing.T) {
	env := testEnv(t)
	r := env.AblationMissingLink()
	if r.WithRepair < 0 || r.WithoutRepair < 0 {
		t.Fatalf("bad row: %+v", r)
	}
	// The repair feature must not hurt badly on a degraded catalog.
	if r.WithRepair < r.WithoutRepair-10 {
		t.Errorf("repair feature hurts: with=%.1f without=%.1f", r.WithRepair, r.WithoutRepair)
	}
}
