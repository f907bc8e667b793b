package main

import (
	"context"
	"fmt"
	"time"

	"rimarket/internal/obs"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupReps = 5

// pipeline is a workload whose timed part is one pass of the pipeline
// over inputs made at setup. A run repeats the pass, over the same
// inputs, until its time is up.
type pipeline struct {
	// users is the cohort size, the divisor of heap per user.
	users int
	// setup makes the inputs; it runs setupReps times.
	setup func() error
	// pass runs the timed part once. In a traced pass tr records the
	// layer spans and ctx carries obs.Metrics; in an untraced one tr is
	// nil and ctx carries nothing.
	pass func(ctx context.Context, tr *tracer) (passOutput, error)
}

// passOutput is what a pass leaves for the untimed steps after it.
type passOutput struct {
	// check verifies the pass's outputs.
	check func() error
	// layers computes a traced pass's per-layer metrics from its spans
	// and the program's counters. It runs before check.
	layers func(tr *tracer, snap *obs.Snapshot) map[string]float64
}

// minPasses is the fewest passes of each kind a run makes, however
// short its time.
const minPasses = 2

// runPipeline runs p for opts.seconds. Untraced, it reports the
// end-to-end metrics over its passes. Traced, it alternates untraced
// and traced passes and reports the per-layer metrics of the traced
// ones, the tracing overhead between the two kinds, and the runtime
// activity of the untraced ones.
func runPipeline(p pipeline, opts options, traced bool) (*outcome, error) {
	setupS, err := timeSetups(p.setup)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	var plain, withTrace []passStats
	var layers []map[string]float64
	var unattributed []float64
	deadline := time.Now().Add(opts.seconds)
	for i := 0; ; i++ {
		enough := len(plain) >= minPasses && (!traced || len(withTrace) >= minPasses)
		if time.Now().After(deadline) && (enough || out.failed >= minPasses) {
			break
		}
		ctx := context.Background()
		var tr *tracer
		var m *obs.Metrics
		if traced && i%2 == 1 {
			tr = &tracer{}
			m = obs.New(obs.SystemClock)
			ctx = obs.WithMetrics(ctx, m)
		}
		var po passOutput
		st, err := timePass(func() error {
			var err error
			po, err = p.pass(ctx, tr)
			return err
		})
		out.attempted++
		if err != nil {
			// The pass did not finish, so its time is not a pass's time.
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("pass %d failed: %v", i, err))
			continue
		}
		var lm map[string]float64
		if tr != nil {
			lm = po.layers(tr, m.Snapshot())
		}
		// A pass with wrong outputs still ran in full: it is timed, and
		// counted as failed.
		if err := po.check(); err != nil {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("pass %d: wrong output: %v", i, err))
		}
		if tr == nil {
			plain = append(plain, st)
			continue
		}
		withTrace = append(withTrace, st)
		layers = append(layers, lm)
		unattributed = append(unattributed, 1-tr.covered().Seconds()/st.wall.Seconds())
	}
	if len(plain) == 0 || (traced && len(withTrace) == 0) {
		return nil, fmt.Errorf("no pass finished: %v", out.notes)
	}
	out.notes = append(out.notes, fmt.Sprintf("%d untraced and %d traced passes; p50_ms and p90_ms are the median and the nearest-rank p90 of pass wall time",
		len(plain), len(withTrace)))
	if !traced {
		walls := make([]float64, len(plain))
		for i, st := range plain {
			walls[i] = st.wall.Seconds()
		}
		out.metrics = map[string]float64{
			"wall_s":  median(walls),
			"cpu_s":   medianOf(plain, func(s passStats) float64 { return s.cpu.Seconds() }),
			"setup_s": setupS,
			"heap_kib_per_user": medianOf(plain, func(s passStats) float64 {
				return float64(s.peakHeap) / 1024 / float64(p.users)
			}),
			"p50_ms": median(walls) * 1e3,
			"p90_ms": quantile(walls, 0.9) * 1e3,
		}
		return out, nil
	}
	out.metrics = layerMedians(layers)
	addRuntime(out.metrics, plain)
	out.metrics["unattributed_frac"] = median(unattributed)
	wallOf := func(s passStats) float64 { return s.wall.Seconds() }
	out.metrics["trace_overhead_frac"] = medianOf(withTrace, wallOf)/medianOf(plain, wallOf) - 1
	return out, nil
}

// timeSetups runs setup setupReps times and returns the median time.
func timeSetups(setup func() error) (float64, error) {
	var ts []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), nil
}

// layerMedians is the per-metric median over the traced passes, with
// every declared per-layer metric present: a layer the workload does
// not cross reads 0.
func layerMedians(passes []map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		var xs []float64
		for _, p := range passes {
			if v, ok := p[d.name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			out[d.name] = median(xs)
		} else {
			out[d.name] = 0
		}
	}
	return out
}

// addRuntime sets the runtime.* metrics: the median allocation and GC
// activity per untraced pass.
func addRuntime(m map[string]float64, passes []passStats) {
	m["runtime.alloc_mib"] = medianOf(passes, func(s passStats) float64 { return float64(s.allocBytes) / (1 << 20) })
	m["runtime.gc_cycles"] = medianOf(passes, func(s passStats) float64 { return float64(s.gcCycles) })
	m["runtime.gc_pause_ms"] = medianOf(passes, func(s passStats) float64 { return s.gcPause.Seconds() * 1e3 })
}

// spanSeconds is the program's own obs spans: total seconds by name.
func spanSeconds(snap *obs.Snapshot) map[string]float64 {
	out := make(map[string]float64, len(snap.Spans))
	for _, s := range snap.Spans {
		out[s.Name] = float64(s.TotalNs) / 1e9
	}
	return out
}

// engineLayers are the engine and grid-scheduler metrics read from the
// program's own counters: engine busy time is the sum of the timed
// engine runs (obs engine_run_ns), and grid idle time is the grid
// spans' worker time not spent in engine runs.
func engineLayers(snap *obs.Snapshot, workers int) map[string]float64 {
	grid := spanSeconds(snap)["grid"]
	var cellEngineNs int64
	for _, c := range snap.Cells {
		cellEngineNs += c.EngineNs
	}
	return map[string]float64{
		"simulate.busy_s":         float64(snap.EngineRunNs.SumNs) / 1e9,
		"simulate.runs":           float64(snap.EngineRuns),
		"simulate.hours":          float64(snap.EngineHours),
		"experiments.grid_s":      grid,
		"experiments.grid_idle_s": grid*float64(workers) - float64(cellEngineNs)/1e9,
		"experiments.jobs_stolen": float64(snap.JobsStolen),
	}
}
