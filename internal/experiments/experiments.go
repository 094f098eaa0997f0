// Package experiments reproduces the paper's evaluation section: one
// driver per table/figure (Figures 5-9), plus three ablations
// (collective vs simplified inference, Majority threshold sweep,
// missing-link feature), over the synthetic world internal/worldgen's
// package doc describes. Both cmd/tabeval and the repository-root
// benchmarks call into this package, so printed numbers and benchmarked
// numbers come from the same code path.
package experiments

import (
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/learn"
	"repro/internal/worldgen"
)

// Env bundles a world and an annotator over its public (degraded)
// catalog. Scale multiplies the paper's dataset sizes.
type Env struct {
	World *worldgen.World
	Ann   *core.Annotator
	Scale float64
}

// NewEnv builds a world and annotator. scale=1.0 reproduces the paper's
// table counts; tests use much smaller scales.
func NewEnv(spec worldgen.Spec, scale float64) (*Env, error) {
	w, err := worldgen.Build(spec)
	if err != nil {
		return nil, err
	}
	ann := core.New(w.Public, feature.DefaultWeights(), core.DefaultConfig())
	return &Env{World: w, Ann: ann, Scale: scale}, nil
}

// TrainOnWikiManual trains weights on the WikiManual dataset (the paper's
// training protocol, §6.1.3) and installs them on the annotator.
func (e *Env) TrainOnWikiManual(cfg learn.Config) error {
	ds := e.World.WikiManual(e.Scale)
	data := make([]learn.Example, len(ds.Tables))
	for i, lt := range ds.Tables {
		data[i] = learn.Example{Table: lt.Table, Gold: goldOf(lt)}
	}
	_, err := learn.Train(e.Ann, data, cfg)
	return err
}

// goldOf converts worldgen ground truth to core gold labels.
func goldOf(lt worldgen.LabeledTable) core.GoldLabels {
	g := core.GoldLabels{
		ColumnTypes: make(map[int]catalog.TypeID, len(lt.GT.ColumnTypes)),
		Cells:       make(map[[2]int]catalog.EntityID, len(lt.GT.Cells)),
	}
	for c, T := range lt.GT.ColumnTypes {
		g.ColumnTypes[c] = T
	}
	for ref, e := range lt.GT.Cells {
		g.Cells[[2]int{ref.Row, ref.Col}] = e
	}
	for _, r := range lt.GT.Relations {
		g.Relations = append(g.Relations, core.RelationAnnotation{
			Col1: r.Col1, Col2: r.Col2, Relation: r.Relation, Forward: r.Forward,
		})
	}
	return g
}
