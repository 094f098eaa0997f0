// Command tabeval reproduces the paper's evaluation: one sub-experiment
// per figure (fig5..fig9), the ablations, and the training comparison.
//
// Usage:
//
//	tabeval -exp all -scale 0.25 -seed 1
//	tabeval -exp fig6 -scale 1.0
//	tabeval -exp fsweep
//
// Output is plain text shaped like the paper's tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/learn"
	"repro/internal/worldgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "tabeval: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tabeval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("exp", "all", "experiment: all|fig5|fig6|fig7|fig8|fig9|simplified|fsweep|missinglink|pool|train")
		scale  = fs.Float64("scale", 0.25, "dataset scale relative to the paper (1.0 = full)")
		seed   = fs.Int64("seed", 1, "world seed")
		tables = fs.Int("fig7tables", 250, "corpus snapshot size for fig7")
		corpus = fs.Int("fig9corpus", 200, "search corpus size for fig9")
		qPerR  = fs.Int("fig9queries", 40, "queries per relation for fig9")
		train  = fs.Bool("trained", false, "train weights on WikiManual first (slower)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec := worldgen.DefaultSpec()
	spec.Seed = *seed
	env, err := experiments.NewEnv(spec, *scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "world: true catalog %v\n", env.World.True.Stats())
	fmt.Fprintf(stdout, "       public catalog %v\n", env.World.Public.Stats())
	fmt.Fprintf(stdout, "scale: %.2f seed: %d\n\n", *scale, *seed)

	if *train {
		fmt.Fprintln(stdout, "training weights on WikiManual...")
		cfg := learn.DefaultConfig()
		cfg.Progress = func(epoch, violations int, avgLoss float64) {
			fmt.Fprintf(stdout, "  epoch %d: %d violations, avg loss %.4f\n", epoch, violations, avgLoss)
		}
		if err := env.TrainOnWikiManual(cfg); err != nil {
			return fmt.Errorf("train: %w", err)
		}
		fmt.Fprintln(stdout)
	}

	want := func(name string) bool { return *exp == "all" || strings.EqualFold(*exp, name) }
	ran := false

	if want("fig5") {
		experiments.PrintFigure5(stdout, env.Figure5())
		fmt.Fprintln(stdout)
		ran = true
	}
	if want("fig6") {
		experiments.PrintFigure6(stdout, env.Figure6())
		fmt.Fprintln(stdout)
		ran = true
	}
	if want("fig7") {
		experiments.PrintFigure7(stdout, env.Figure7(*tables))
		fmt.Fprintln(stdout)
		ran = true
	}
	if want("fig8") {
		experiments.PrintFigure8(stdout, env.Figure8())
		fmt.Fprintln(stdout)
		ran = true
	}
	if want("fig9") {
		experiments.PrintFigure9(stdout, env.Figure9(*corpus, *qPerR))
		fmt.Fprintln(stdout)
		ran = true
	}
	if want("simplified") {
		experiments.PrintAblationSimplified(stdout, env.AblationSimplified())
		fmt.Fprintln(stdout)
		ran = true
	}
	if want("fsweep") {
		experiments.PrintThresholdSweep(stdout, env.ThresholdSweep([]float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}))
		fmt.Fprintln(stdout)
		ran = true
	}
	if want("missinglink") {
		experiments.PrintMissingLink(stdout, env.AblationMissingLink())
		fmt.Fprintln(stdout)
		ran = true
	}
	if want("pool") {
		experiments.PrintCandidatePool(stdout, env.AblationCandidatePool([]int{2, 4, 8, 16}))
		fmt.Fprintln(stdout)
		ran = true
	}
	if want("train") && !*train {
		fmt.Fprintln(stdout, "training comparison (structured learner, §6.1.3)...")
		cfg := learn.DefaultConfig()
		cfg.Epochs = 3
		if err := env.TrainOnWikiManual(cfg); err != nil {
			return fmt.Errorf("train: %w", err)
		}
		rows := env.TrainingComparison(env.Ann.Weights())
		fmt.Fprintf(stdout, "%-18s %10s %8s\n", "Setting", "EntityAcc", "TypeF1")
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-18s %10.2f %8.2f\n", r.Setting, r.EntityAcc, r.TypeF1)
		}
		fmt.Fprintln(stdout)
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}
