// Command benchmark is the repository's benchmark: three workloads a
// change is gated on (ingest, serve-single, serve-sharded) and one run by
// hand (serve-mixed) over inputs made from -seed, end-to-end metrics with
// tracing off, and a separate traced run that attributes each workload's
// time to the packages under internal/. README.md in this directory says
// what each workload and metric is for; ../BENCHMARK.json names them for
// the driver.
//
//	bash benchmark/run.sh                                   every workload once, untraced
//	bash benchmark/run.sh --workload serve-sharded --seed 3 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload ingest --trace 1        per-layer metrics + trace file
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func nproc() int { return runtime.NumCPU() }

// busy is how many things the benchmark keeps running at once: the
// closed-loop callers of the serve workloads and the annotation workers
// of the node ingest posts to. It is half the processors, one on the
// two-processor sandbox. The servers run in this process, their
// goroutines, the collector and the kernel's side of loopback need
// somewhere to run, and the processors are shared with whatever else the
// host runs: with as many callers as processors, ten runs of one commit
// spread by 20 % under a neighbour that left one caller's runs within 4 %.
func busy() int { return max(1, nproc()/2) }

// spec is ../BENCHMARK.json: the names, units, directions and bounds
// every run is checked against.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// provenance says what produced a result file.
type provenance struct {
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	Workers    int    `json:"ingest_workers"`
	RunSeconds int    `json:"run_seconds"`
	Short      bool   `json:"short,omitempty"`
}

func readProvenance(seconds int, short bool) provenance {
	p := provenance{
		Revision: "unknown", GoVersion: runtime.Version(), NProc: nproc(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: busy(), Workers: busy(), RunSeconds: seconds, Short: short,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	if p.Revision == "unknown" { // built without VCS stamping, e.g. go run
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			p.Revision = strings.TrimSpace(string(out))
			st, _ := exec.Command("git", "status", "--porcelain").Output()
			p.Modified = len(st) > 0
		}
	}
	return p
}

// resultFile is what a set of runs leaves under results/.
type resultFile struct {
	Claim      *string    `json:"claim"` // the benchmark claims no gain: always null
	Provenance provenance `json:"provenance"`
	Runs       []*result  `json:"runs"`
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkMetrics holds a run to the spec: exactly the named metrics, every
// one a finite number, and no end-to-end metric zero.
func checkMetrics(r *result, s *spec) error {
	want := s.EndToEnd
	if r.Trace {
		want = s.PerLayer
	}
	var problems []string
	for _, m := range want {
		v, ok := r.Metrics[m.Name]
		switch {
		case !ok:
			problems = append(problems, m.Name+" missing")
		case v != v || v-v != 0:
			problems = append(problems, m.Name+" not finite")
		case !r.Trace && v == 0:
			problems = append(problems, m.Name+" is 0")
		}
	}
	for name := range r.Metrics {
		if !nameRE.MatchString(name) || !slices.ContainsFunc(want, func(m specMetric) bool { return m.Name == name }) {
			problems = append(problems, name+" not in BENCHMARK.json")
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("%s: %s", r.Workload, strings.Join(problems, "; "))
	}
	return nil
}

// contractLine is the one-line JSON object the driver reads.
func contractLine(r *result, s *spec) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	units := map[string]string{}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		units[m.Name] = m.Unit
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for name, v := range r.Metrics {
		out.Metrics[name] = value{v, units[name]}
	}
	raw, _ := json.Marshal(out)
	return string(raw)
}

func printResult(w io.Writer, r *result, s *spec) {
	list := s.EndToEnd
	if r.Trace {
		list = s.PerLayer
	}
	fmt.Fprintf(w, "\n%s  seed %d  attempted %d  failed %d\n", r.Workload, r.Seed, r.Attempted, r.Failed)
	for _, m := range list {
		fmt.Fprintf(w, "  %-36s %14.4f %-6s (n=%d)\n", m.Name, r.Metrics[m.Name], m.Unit, r.Samples[m.Name])
	}
	notes := make([]string, 0, len(r.Notes))
	for k := range r.Notes {
		notes = append(notes, k)
	}
	sort.Strings(notes)
	for _, k := range notes {
		fmt.Fprintf(w, "  note %-31s %14.4f\n", k, r.Notes[k])
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "one of "+strings.Join(workloadNames, ", ")+", or all")
		seed     = fs.Int64("seed", 1, "every input is made from this seed")
		seconds  = fs.Int("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json; 2 with -short)")
		trace    = fs.Int("trace", 0, "1 = the traced run: per-layer metrics and results/trace-<workload>.json")
		runs     = fs.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
		short    = fs.Bool("short", false, "toy sizes, for the package test")
		specPath = fs.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
		results  = fs.String("results", filepath.Join("benchmark", "results"), "directory for result and trace files")
		workdir  = fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for the snapshot files the servers write")
		out      = fs.String("out", "", "result file name under -results (default run-<time>.json)")
		compare  = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(stdout, s, fs.Arg(0), fs.Arg(1))
	}
	z := fullSizes()
	if *short {
		z = shortSizes()
	}
	if *seconds == 0 {
		*seconds = s.RunSeconds
		if *short {
			*seconds = 2
		}
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		names = []string{*workload}
	}

	file := resultFile{Provenance: readProvenance(*seconds, *short)}
	var last *result
	failed := false
	for _, name := range names {
		for i := 0; i < *runs; i++ {
			h := newHarness(ctx, name, *seed+int64(i), time.Duration(*seconds)*time.Second, z, *workdir)
			if *trace == 1 {
				h.res.Trace = true
				h.tr = newTracer()
			}
			if err := h.run(); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if h.tr != nil {
				if err := h.tr.write(filepath.Join(*results, "trace-"+name+".json"), h.res); err != nil {
					return err
				}
			}
			printResult(stdout, h.res, s)
			if h.res.Failed == 0 {
				if err := checkMetrics(h.res, s); err != nil {
					return err
				}
			}
			failed = failed || h.res.Failed > 0
			file.Runs = append(file.Runs, h.res)
			last = h.res
		}
	}
	if *out == "" {
		*out = "run-" + time.Now().UTC().Format("20060102T150405") + ".json"
	}
	path := filepath.Join(*results, *out)
	if err := writeJSON(path, file); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", path)
	if len(file.Runs) == 1 {
		fmt.Fprintln(stdout, contractLine(last, s))
	}
	if failed {
		return errors.New("outputs were not correct")
	}
	return nil
}
