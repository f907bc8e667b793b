package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"rimarket/internal/experiments"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runTiny runs one workload at smoke-test size in a scratch directory
// and returns its parsed result line.
func runTiny(t *testing.T, workload, seed, trace string) (result, map[string]metricValue) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", seed, "--seconds", "0.2", "--trace", trace, "--scale", "tiny"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s seed %s trace %s: exit %d\n%s", workload, seed, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: result line %q: %v", workload, lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %s trace %s: correct %v, %d of %d failed\n%s", workload, seed, trace, res.Correct, res.Failed, res.Attempted, stderr.String())
	}
	values := make(map[string]metricValue, len(res.Metrics))
	for name, raw := range res.Metrics {
		var v metricValue
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("%s: metric %s: %v", workload, name, err)
		}
		values[name] = v
	}
	return res, values
}

// inScratchDir runs the test from a scratch directory, where the
// benchmark makes its work directory.
func inScratchDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// TestSmoke runs every workload at a tiny size in both modes and checks
// that every declared metric is emitted with its declared unit, under a
// valid name, and that a different seed changes the inputs but not the
// set of metrics.
func TestSmoke(t *testing.T) {
	inScratchDir(t)
	for _, workload := range []string{"cohort", "sweep", "rid"} {
		for trace, decls := range map[string][]metricDecl{"0": endToEnd, "1": perLayer} {
			var sets [][]string
			var runs []map[string]metricValue
			for _, seed := range []string{"1", "2"} {
				_, values := runTiny(t, workload, seed, trace)
				if len(values) != len(decls) {
					t.Errorf("%s trace %s: %d metrics, %d declared", workload, trace, len(values), len(decls))
				}
				for _, d := range decls {
					v, ok := values[d.name]
					if !ok {
						t.Errorf("%s trace %s: metric %s missing", workload, trace, d.name)
					} else if v.Unit != d.unit {
						t.Errorf("%s trace %s: metric %s has unit %q, declared %q", workload, trace, d.name, v.Unit, d.unit)
					}
				}
				var names []string
				for name, v := range values {
					if !nameRE.MatchString(name) || !unitRE.MatchString(v.Unit) {
						t.Errorf("%s: bad metric name %q or unit %q", workload, name, v.Unit)
					}
					names = append(names, name)
				}
				sort.Strings(names)
				sets = append(sets, names)
				runs = append(runs, values)
			}
			if !reflect.DeepEqual(sets[0], sets[1]) {
				t.Errorf("%s trace %s: seeds 1 and 2 emit different metric sets: %v vs %v", workload, trace, sets[0], sets[1])
			}
			if workload == "cohort" && trace == "1" && runs[0]["purchasing.reserved"] == runs[1]["purchasing.reserved"] {
				t.Errorf("seeds 1 and 2 reserved the same number of instances (%v): the seed does not reach the inputs",
					runs[0]["purchasing.reserved"].Value)
			}
		}
	}
}

// TestSeedChangesRidMix checks that the rid query mix is made from the
// seed: the same seed gives the same requests, another seed others.
func TestSeedChangesRidMix(t *testing.T) {
	set := tinyDecisionSet(t)
	a, err := makeMix(set, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := makeMix(set, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeMix(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.reqs, again.reqs) {
		t.Error("seed 1 made two different mixes")
	}
	if reflect.DeepEqual(a.reqs, b.reqs) {
		t.Error("seeds 1 and 2 made the same mix")
	}
	statuses := map[int]int{}
	for _, s := range a.status {
		statuses[s]++
	}
	for _, s := range []int{200, 400, 404} {
		if statuses[s] == 0 {
			t.Errorf("the mix has no query answered %d: %v", s, statuses)
		}
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON checks the metric tables
// against the BENCHMARK.json at the repository root.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind     string
		declared []metricDecl
		spec     []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		var got []metricDecl
		for _, m := range c.spec {
			got = append(got, metricDecl{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.declared) {
			t.Errorf("BENCHMARK.json %s is %v, the benchmark declares %v", c.kind, got, c.declared)
		}
	}
}

// tinyDecisionSet is a smoke-test-size snapshot.
func tinyDecisionSet(t *testing.T) *experiments.DecisionSet {
	t.Helper()
	cfg := experiments.TestScaleConfig()
	cfg.PerGroup = 4
	plan, err := experiments.NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	set, err := plan.Decisions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return set
}
