// Command perfbench is the repository's benchmark: it runs one named
// workload against the engine with a seeded input, checks the engine's
// results against reference computations, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones a client sees; with
// -trace 1 they are the per-layer ones derived from spans recorded around
// the benchmark's calls into each layer. See README.md for the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one named value as the result line reports it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	work    string // scratch directory for temp dirs, traces and results
	clk     wallClock
}

// report is a workload's outcome.
type report struct {
	attempted int64
	failed    int64
	endToEnd  map[string]metric
	layers    map[string]metric
	// detail holds figures that explain the headline metrics (per-kind
	// latencies, sample counts, the ladder); printed and saved, not gated.
	detail   map[string]metric
	params   map[string]any
	problems []string // oracle mismatches; any makes the run incorrect
	spans    *spanLog
}

func newReport() *report {
	return &report{
		endToEnd: map[string]metric{},
		layers:   map[string]metric{},
		detail:   map[string]metric{},
		params:   map[string]any{},
	}
}

// check records an oracle mismatch when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig) (*report, error){
	"voter-oltp":    runVoterOLTP,
	"bikeshare-mix": runBikeshareMix,
	"dashboard-tcp": runDashboardTCP,
}

func main() {
	name := flag.String("workload", "", "workload: voter-oltp, bikeshare-mix or dashboard-tcp")
	seed := flag.Int64("seed", 42, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload voter-oltp|bikeshare-mix|dashboard-tcp -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	tmp := filepath.Join(*work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fail(err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work, clk: newWallClock()}
	rep, err := run(cfg)
	if err != nil {
		fail(fmt.Errorf("%s: %w", *name, err))
	}
	if err := emit(*name, cfg, rep); err != nil {
		fail(err)
	}
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// stamp identifies the code and host a result came from.
func stamp(name string, cfg runConfig) map[string]any {
	commit, modified := "unknown (not built from a git checkout)", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"workload":     name,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
		"commit":       commit,
		"vcs_modified": modified,
		"go":           runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
		"time_utc":     time.Now().UTC().Format(time.RFC3339),
	}
}

// emit prints the human-readable metrics, saves the full result (and the
// spans of a traced run) under the work directory, and prints the result
// line last.
func emit(name string, cfg runConfig, rep *report) error {
	st := stamp(name, cfg)
	rep.detail["err_frac"] = metric{ratio(float64(rep.failed), float64(rep.attempted)), "frac"}
	head, _ := json.Marshal(st) // maps of plain values always marshal
	params, _ := json.Marshal(rep.params)
	fmt.Printf("# perfbench %s\n# params %s\n", head, params)
	gated := rep.endToEnd
	if cfg.trace {
		gated = rep.layers
	}
	printMetrics("", gated)
	printMetrics("detail ", rep.detail)
	for _, p := range rep.problems {
		fmt.Printf("# ORACLE FAILED: %s\n", p)
	}

	tag := fmt.Sprintf("%s-seed%d-trace%v", name, cfg.seed, cfg.trace)
	dir := filepath.Join(cfg.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	full, err := json.MarshalIndent(map[string]any{
		"stamp": st, "params": rep.params, "correct": len(rep.problems) == 0,
		"attempted": rep.attempted, "failed": rep.failed, "problems": rep.problems,
		"end_to_end": rep.endToEnd, "per_layer": rep.layers, "detail": rep.detail,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, tag+".json"), full, 0o644); err != nil {
		return err
	}
	if rep.spans != nil {
		if err := rep.spans.write(filepath.Join(dir, tag+".spans.csv.gz")); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}

	line, err := json.Marshal(map[string]any{
		"correct":   len(rep.problems) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   gated,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(prefix string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# %s%-28s %14.6g %s\n", prefix, k, m[k].Value, m[k].Unit)
	}
}
