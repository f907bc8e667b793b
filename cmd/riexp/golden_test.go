package main

// Golden tests pin riexp's sweep and sensitivity output at the default
// test scale (TestScaleConfig: 90 users, 60-day horizon, seed 2018),
// and the market-dynamics table at the paper scale (300 users, one
// year), where the order book's monthly repricing shows.
// Every quantity in these tables is deterministic — the cohort, the
// purchasing behaviors and the selling policies are all seeded — so
// the files assert byte-exact output. Regenerate after an intentional
// change with:
//
//	go test ./cmd/riexp -run TestGolden -update

import (
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs use the full test-scale cohort; skipped in -short mode")
	}
	cases := []struct {
		name string
		args []string
	}{
		{name: "sweep-k", args: []string{"-exp", "sweep-k"}},
		{name: "sweep-a", args: []string{"-exp", "sweep-a"}},
		{name: "sensitivity", args: []string{"-exp", "sensitivity"}},
		{name: "market", args: []string{"-exp", "market", "-scale", "full"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(context.Background(), tc.args, &out, io.Discard); err != nil {
				t.Fatalf("run(%v): %v", tc.args, err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("output differs from %s (run with -update after intentional changes)\n--- want\n%s--- got\n%s",
					path, want, got)
			}
		})
	}
}

// TestGoldenParallelismSmoke asserts the -parallelism flag is accepted
// and does not change results: the golden comparison above runs at the
// default worker count, so matching it at explicit worker counts pins
// the whole CLI path's determinism.
func TestGoldenParallelismSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs use the full test-scale cohort; skipped in -short mode")
	}
	var ref strings.Builder
	if err := run(context.Background(), []string{"-exp", "sweep-k", "-parallelism", "1"}, &ref, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, par := range []string{"2", "8"} {
		var out strings.Builder
		if err := run(context.Background(), []string{"-exp", "sweep-k", "-parallelism", par}, &out, io.Discard); err != nil {
			t.Fatalf("parallelism %s: %v", par, err)
		}
		if out.String() != ref.String() {
			t.Errorf("parallelism %s output differs from serial:\n%s", par, out.String())
		}
	}
}
