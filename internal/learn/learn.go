// Package learn trains the annotator's weights w1..w5 with large-margin
// structured learning, standing in for the SVM-struct implementation the
// paper uses (§4.3, [Tsochantaridis et al. 2005]): a margin-rescaled
// subgradient optimizer with Hamming-loss-augmented inference, returning
// the average of its iterates.
package learn

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/table"
)

// Example is one training table with gold labels.
type Example struct {
	Table *table.Table
	Gold  core.GoldLabels
}

// Config tunes training.
type Config struct {
	// Epochs over the training set.
	Epochs int
	// Progress, when set, is called after every epoch.
	Progress func(epoch int, violations int, avgLoss float64)
}

// DefaultConfig is a stable operating point for the synthetic corpora.
func DefaultConfig() Config {
	return Config{Epochs: 5}
}

// The rest of the operating point, which no caller varies.
const (
	// learningRate is the (fixed) subgradient step size.
	learningRate = 0.05
	// lossWeight scales the Hamming loss in the separation oracle.
	lossWeight = 0.5
	// l2 is the regularizer coefficient (λ); each update shrinks w by
	// learningRate·l2·w.
	l2 = 1e-4
	// seed shuffles example order per epoch.
	seed = 7
)

// Train fits weights starting from the annotator's current weights. The
// annotator's weights are updated in place as training proceeds and left
// at the average of all intermediate weight vectors, which damps the
// subgradient steps' oscillation; that average is also returned.
func Train(a *core.Annotator, data []Example, cfg Config) (feature.Weights, error) {
	if len(data) == 0 {
		return a.Weights(), fmt.Errorf("learn: empty training set")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	rng := rand.New(rand.NewSource(seed))
	w := a.Weights().Flatten()
	sum := make([]float64, len(w))
	steps := 0

	order := make([]int, len(data))
	for i := range order {
		order[i] = i
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		violations := 0
		totalLoss := 0.0
		for _, idx := range order {
			ex := data[idx]
			cur, err := feature.WeightsFromFlat(w)
			if err != nil {
				return a.Weights(), err
			}
			a.SetWeights(cur)

			gold := a.GoldAnnotation(ex.Table, ex.Gold)
			pred := a.AnnotateLossAugmented(ex.Table, ex.Gold, lossWeight)

			phiGold := a.FeatureVector(ex.Table, gold)
			phiPred := a.FeatureVector(ex.Table, pred)

			loss := hamming(gold, pred)
			totalLoss += loss
			diff := false
			for i := range w {
				if phiGold[i] != phiPred[i] {
					diff = true
					break
				}
			}
			if diff || loss > 0 {
				violations++
				for i := range w {
					w[i] += learningRate * (phiGold[i] - phiPred[i])
					w[i] -= learningRate * l2 * w[i]
				}
			}
			for i := range w {
				sum[i] += w[i]
			}
			steps++
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch, violations, totalLoss/float64(len(data)))
		}
	}

	final := make([]float64, len(w))
	for i := range final {
		final[i] = sum[i] / float64(steps)
	}
	out, err := feature.WeightsFromFlat(final)
	if err != nil {
		return a.Weights(), err
	}
	a.SetWeights(out)
	return out, nil
}

// hamming counts label disagreements between two annotations over cells,
// columns and relation pairs (normalized per table to balance table
// sizes).
func hamming(gold, pred *core.Annotation) float64 {
	n, wrong := 0, 0
	for c := range gold.ColumnTypes {
		n++
		if gold.ColumnTypes[c] != pred.ColumnTypes[c] {
			wrong++
		}
	}
	for r := range gold.CellEntities {
		for c := range gold.CellEntities[r] {
			n++
			if gold.CellEntities[r][c] != pred.CellEntities[r][c] {
				wrong++
			}
		}
	}
	seen := make(map[[2]int]bool)
	for _, g := range gold.Relations {
		n++
		seen[[2]int{g.Col1, g.Col2}] = true
		if p, ok := pred.RelationBetween(g.Col1, g.Col2); !ok ||
			p.Relation != g.Relation || p.Forward != g.Forward {
			wrong++
		}
	}
	for _, p := range pred.Relations {
		if !seen[[2]int{p.Col1, p.Col2}] {
			n++
			wrong++ // predicted a relation where gold has none
		}
	}
	if n == 0 {
		return 0
	}
	return float64(wrong) / float64(n)
}
