// Command ribench is the repository's benchmark. It runs one named
// workload of the paper pipeline for a given time, checks the
// program's outputs, and prints every metric by name with its unit:
// a human-readable table on standard error and, as the last line of
// standard output, one JSON object
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {"wall_s": {"value": 5.1, "unit": "s"}, ...}}
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash ribench/run.sh --workload cohort --seed 1 --seconds 30 --trace 0
//
// Workloads: cohort (the cold paper pipeline), sweep (warm grids over
// one plan loaded from a .colt store) and rid (the recommendation
// daemon under open-loop load). --trace 0 reports the end-to-end
// metrics from untraced runs; --trace 1 reports the per-layer metrics
// from a traced run. README.md in this directory describes the
// metrics, the layer each one belongs to and the end-to-end metric it
// should move.
//
// The benchmark only calls the layers' exported functions, in the
// order the drivers call them, with default execution settings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDecl is one reported metric: its name and unit.
type metricDecl struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by
// every workload with --trace 0. BENCHMARK.json declares the same set.
var endToEnd = []metricDecl{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"heap_kib_per_user", "KiB"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
}

// perLayer are the single-layer metrics, reported by every workload
// with --trace 1; a layer the workload does not cross reads 0.
var perLayer = []metricDecl{
	{"workload.synth_s", "s"},
	{"purchasing.plan_s", "s"},
	{"purchasing.reserved", "count"},
	{"simulate.busy_s", "s"},
	{"simulate.runs", "count"},
	{"simulate.hours", "count"},
	{"experiments.baseline_s", "s"},
	{"experiments.grid_s", "s"},
	{"experiments.grid_idle_s", "s"},
	{"experiments.jobs_stolen", "count"},
	{"experiments.assemble_s", "s"},
	{"experiments.render_s", "s"},
	{"experiments.market_scenario_s", "s"},
	{"experiments.market_session_s", "s"},
	{"experiments.decisions_s", "s"},
	{"experiments.evaluate_us", "us"},
	{"marketplace.listings", "count"},
	{"marketplace.trades", "count"},
	{"marketplace.sale_frac", "ratio"},
	{"marketplace.fill_frac", "ratio"},
	{"coltrace.decode_s", "s"},
	{"gridstore.spill_bytes", "bytes"},
	{"gridstore.resume_s", "s"},
	{"ridserver.handler_us", "us"},
	{"ridserver.shed", "count"},
	{"gen_late_ms", "ms"},
	{"runtime.alloc_mib", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"unattributed_frac", "ratio"},
	{"trace_overhead_frac", "ratio"},
}

// options are a run's settings.
type options struct {
	seed    int64
	seconds time.Duration
	// tiny shrinks every input to smoke-test size.
	tiny bool
	// workdir holds the run's scratch files; it is removed at exit.
	workdir string
}

// outcome is a finished run: operations attempted and failed, and the
// metrics of the run's mode by name.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// notes are printed to standard error beside the metrics: sample
	// counts and anything else a reader needs to interpret them.
	notes []string
}

// workloads maps a workload name to its run function.
var workloads = map[string]func(opts options, traced bool) (*outcome, error){
	"cohort": runCohort,
	"sweep":  runSweep,
	"rid":    runRid,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ribench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cohort, sweep or rid")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "how long the timed part runs")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics from untraced runs, 1 per-layer metrics from a traced run")
	scale := fs.String("scale", "full", "input size: full, or tiny for a smoke test")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || (*scale != "full" && *scale != "tiny") {
		fmt.Fprintf(stderr, "ribench: usage: --workload cohort|sweep|rid --seed N --seconds S --trace 0|1 [--scale full|tiny]\n")
		return 2
	}
	workdir, err := makeWorkdir()
	if err != nil {
		fmt.Fprintln(stderr, "ribench:", err)
		return 1
	}
	defer os.RemoveAll(workdir)
	opts := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		tiny:    *scale == "tiny",
		workdir: workdir,
	}
	out, err := wl(opts, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "ribench: %s: %v\n", *name, err)
		return 1
	}
	decls := endToEnd
	if *trace == 1 {
		decls = perLayer
	}
	line, err := resultLine(out, decls)
	if err != nil {
		fmt.Fprintf(stderr, "ribench: %s: %v\n", *name, err)
		return 1
	}
	report(stderr, *name, out, decls)
	fmt.Fprintln(stdout, line)
	return 0
}

// resultLine renders the run as the one-line JSON result. Every
// declared metric must be present and finite, and nothing else may be.
func resultLine(out *outcome, decls []metricDecl) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(decls))
	for _, d := range decls {
		v, ok := out.metrics[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	if len(out.metrics) != len(decls) {
		return "", fmt.Errorf("measured %d metrics, %d declared", len(out.metrics), len(decls))
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	return string(b), err
}

// report prints the run as a table on w: every metric with its unit,
// the failed fraction of operations, and the run's notes.
func report(w io.Writer, name string, out *outcome, decls []metricDecl) {
	fmt.Fprintf(w, "ribench %s: %d operations attempted, %d failed (fail_frac %.4g)\n",
		name, out.attempted, out.failed, float64(out.failed)/float64(out.attempted))
	for _, d := range decls {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, out.metrics[d.name], d.unit)
	}
	notes := append([]string(nil), out.notes...)
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// makeWorkdir creates the run's scratch directory under .bench_build,
// inside the checkout the benchmark runs from.
func makeWorkdir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
