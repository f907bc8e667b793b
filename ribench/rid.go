package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"rimarket/internal/experiments"
	"rimarket/internal/obs"
	"rimarket/internal/ridserver"
)

const (
	// ridRate is the fixed open-loop rate p50_ms and p90_ms are
	// measured at, in requests per second.
	ridRate = 4000
	// ridConns is the number of connections the load goes over.
	ridConns = 2
	// ridMix is the number of distinct queries in the seeded mix.
	ridMix = 4096
	// ridBatch is the size of one closed-loop batch, the pass wall_s
	// and cpu_s are measured over.
	ridBatch = 4000
)

// runRid is the recommendation daemon under load. Set-up builds the
// DecisionSet the way rid does (plan the cohort, then plan.Decisions)
// and starts ridserver on loopback. The timed part sends a seeded mix
// of /v1/recommend queries over two connections: open loop at a fixed
// rate for latency, then closed-loop batches for the time and CPU a
// batch of queries costs. Every response must be byte-identical to
// the answer Evaluate gives for its query.
func runRid(opts options, traced bool) (*outcome, error) {
	cfg := experiments.DefaultConfig()
	if opts.tiny {
		cfg = experiments.TestScaleConfig()
		cfg.PerGroup = 4
	}
	cfg.Seed = opts.seed

	// Set-up is what rid does before it serves: NewCohortPlan
	// synthesizes and plans the cohort, and plan.Decisions computes the
	// baseline and replays every policy. A traced run keeps each
	// set-up's layer figures.
	var (
		set   *experiments.DecisionSet
		setup []map[string]float64
	)
	setupS, err := timeSetups(func() error {
		ctx := context.Background()
		var tr *tracer
		var m *obs.Metrics
		if traced {
			tr = &tracer{}
			m = obs.New(obs.SystemClock)
			ctx = obs.WithMetrics(ctx, m)
		}
		var plan *experiments.CohortPlan
		err := tr.span("plan", func() error {
			var err error
			plan, err = experiments.NewCohortPlan(ctx, cfg)
			return err
		})
		if err == nil {
			err = tr.span("decisions", func() error {
				var err error
				set, err = plan.Decisions(ctx)
				return err
			})
		}
		if err != nil || m == nil {
			return err
		}
		snap := m.Snapshot()
		spans := spanSeconds(snap)
		l := engineLayers(snap, runtime.GOMAXPROCS(0))
		// NewCohortPlan's obs "plan" span covers the planning; the rest
		// of the call is the synthesis.
		l["workload.synth_s"] = tr.seconds("plan") - spans["plan"]
		l["purchasing.plan_s"] = spans["plan"]
		l["purchasing.reserved"] = float64(reserved(plan))
		l["experiments.baseline_s"] = spans["baseline"]
		l["experiments.decisions_s"] = tr.seconds("decisions")
		setup = append(setup, l)
		return nil
	})
	if err != nil {
		return nil, err
	}
	mix, err := makeMix(set, opts.seed)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(set, nil)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	out := &outcome{}
	rate := float64(ridRate)
	if !traced {
		fixed := opts.seconds * 3 / 5
		lat, err := openLoop(srv.clients, mix, 0, int(rate*fixed.Seconds()), rate)
		if err != nil {
			return nil, err
		}
		out.add(lat)
		var batches []passStats
		deadline := time.Now().Add(opts.seconds - fixed)
		for len(batches) < minPasses || time.Now().Before(deadline) {
			var res loadResult
			st, err := timePass(func() error {
				var err error
				res, err = closedLoop(srv.clients, mix, len(batches)*ridBatch, ridBatch)
				return err
			})
			if err != nil {
				return nil, err
			}
			out.add(res)
			batches = append(batches, st)
		}
		ms := durations(lat.latency, time.Millisecond)
		out.metrics = map[string]float64{
			"wall_s":  medianOf(batches, func(s passStats) float64 { return s.wall.Seconds() }),
			"cpu_s":   medianOf(batches, func(s passStats) float64 { return s.cpu.Seconds() }),
			"setup_s": setupS,
			"heap_kib_per_user": medianOf(batches, func(s passStats) float64 {
				return float64(s.peakHeap) / 1024 / float64(set.Users())
			}),
			"p50_ms": median(ms),
			"p90_ms": quantile(ms, 0.9),
		}
		out.notes = append(out.notes,
			fmt.Sprintf("p50_ms and p90_ms over %d requests open loop at %d/s on %d connections; generator p99 lateness %.3f ms",
				len(ms), ridRate, ridConns, quantile(durations(lat.late, time.Millisecond), 0.99)),
			fmt.Sprintf("wall_s, cpu_s and heap_kib_per_user are medians over %d closed-loop batches of %d requests", len(batches), ridBatch))
		return out, nil
	}

	// Traced: the same open-loop phase against the untraced server and
	// against a second server that feeds obs.Metrics, then Evaluate
	// alone, in process.
	phase := opts.seconds * 2 / 5
	n := int(rate * phase.Seconds())
	var plain loadResult
	st, err := timePass(func() error {
		var err error
		plain, err = openLoop(srv.clients, mix, 0, n, rate)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.add(plain)
	m := obs.New(obs.SystemClock)
	tsrv, err := startServer(set, m)
	if err != nil {
		return nil, err
	}
	defer tsrv.stop()
	withTrace, err := openLoop(tsrv.clients, mix, n, n, rate)
	if err != nil {
		return nil, err
	}
	out.add(withTrace)
	snap := m.Snapshot()
	serving := snap.Serving
	if serving == nil || serving.Requests == 0 {
		return nil, fmt.Errorf("the traced server counted no requests")
	}
	var clientNs int64
	for _, d := range withTrace.latency {
		clientNs += d.Nanoseconds()
	}
	evalUs := timeEvaluate(set, mix, opts.seconds/5)
	out.metrics = layerMedians(setup)
	addRuntime(out.metrics, []passStats{st})
	out.metrics["experiments.evaluate_us"] = evalUs
	out.metrics["ridserver.handler_us"] = float64(serving.RequestNs.SumNs) / float64(serving.Requests) / 1e3
	out.metrics["ridserver.shed"] = float64(serving.Shed)
	out.metrics["gen_late_ms"] = quantile(durations(plain.late, time.Millisecond), 0.99)
	// The part of each request's latency the server's handler does not
	// cover: connection, HTTP parsing and queueing.
	out.metrics["unattributed_frac"] = 1 - float64(serving.RequestNs.SumNs)/float64(clientNs)
	p50 := func(r loadResult) float64 { return median(durations(r.latency, time.Millisecond)) }
	out.metrics["trace_overhead_frac"] = p50(withTrace)/p50(plain) - 1
	out.notes = append(out.notes, fmt.Sprintf("%d requests per open-loop phase at %d/s; gen_late_ms is the generator's p99 lateness", n, ridRate))
	return out, nil
}

// add counts a load phase's requests and mismatched responses.
func (o *outcome) add(r loadResult) {
	o.attempted += len(r.latency)
	o.failed += r.mismatched
}

// durations converts ds to floats in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// queryMix is the seeded query mix with each query's expected answer.
type queryMix struct {
	// reqs are the encoded HTTP requests.
	reqs [][]byte
	// queries are the decoded queries, for in-process evaluation.
	queries []experiments.Query
	// status and bodies are the expected responses.
	status []int
	bodies [][]byte
}

// makeMix draws the query mix from seed: users, policies, instances
// and hours across the snapshot, with about one query in eleven asking
// for a user, policy or instance that does not exist (404) or an hour
// outside the horizon (400), as real clients do. A query's expected
// answer is json.Marshal(Evaluate(q)) + "\n", or for a failed
// evaluation the error body the server documents.
func makeMix(set *experiments.DecisionSet, seed int64) (*queryMix, error) {
	rng := rand.New(rand.NewSource(seed))
	policies := set.Policies()
	mix := &queryMix{}
	for i := 0; i < ridMix; i++ {
		u := rng.Intn(set.Users())
		q := experiments.Query{
			User:   set.UserName(u),
			Policy: policies[rng.Intn(len(policies))],
			Hour:   rng.Intn(set.Horizon()),
		}
		if r := set.Reserved(u); r > 0 {
			q.Instance = rng.Intn(r)
		}
		switch x := rng.Intn(100); {
		case x < 3:
			q.User = fmt.Sprintf("no-such-user-%d", i)
		case x < 5:
			q.Policy = "A_{T/3}"
		case x < 7:
			q.Instance = set.Reserved(u) + rng.Intn(4)
		case x < 9:
			q.Hour = set.Horizon() + rng.Intn(100)
		}
		body, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		status, want, err := expected(set, q)
		if err != nil {
			return nil, err
		}
		mix.reqs = append(mix.reqs, []byte(fmt.Sprintf(
			"POST /v1/recommend HTTP/1.1\r\nHost: ribench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			len(body), body)))
		mix.queries = append(mix.queries, q)
		mix.status = append(mix.status, status)
		mix.bodies = append(mix.bodies, want)
	}
	return mix, nil
}

// expected is the response the server must give for q.
func expected(set *experiments.DecisionSet, q experiments.Query) (int, []byte, error) {
	rec, err := set.Evaluate(q)
	var v any = rec
	status := http.StatusOK
	switch {
	case err == nil:
	case errors.Is(err, experiments.ErrUnknownUser), errors.Is(err, experiments.ErrUnknownPolicy),
		errors.Is(err, experiments.ErrUnknownInstance):
		status, v = http.StatusNotFound, ridserver.ErrorResponse{Error: err.Error()}
	case errors.Is(err, experiments.ErrHourOutOfRange):
		status, v = http.StatusBadRequest, ridserver.ErrorResponse{Error: err.Error()}
	default:
		return 0, nil, err
	}
	b, err := json.Marshal(v)
	return status, append(b, '\n'), err
}

// timeEvaluate is Evaluate's mean time per query in microseconds, the
// median over rounds of the whole mix run for about d.
func timeEvaluate(set *experiments.DecisionSet, mix *queryMix, d time.Duration) float64 {
	var rounds []float64
	deadline := time.Now().Add(d)
	for len(rounds) < minPasses || time.Now().Before(deadline) {
		start := time.Now()
		for _, q := range mix.queries {
			set.Evaluate(q)
		}
		rounds = append(rounds, float64(time.Since(start).Microseconds())/float64(len(mix.queries)))
	}
	return median(rounds)
}

// server is a ridserver serving on loopback, with the benchmark's
// connections to it.
type server struct {
	clients []*client
	cancel  context.CancelFunc
	served  chan error
}

// startServer serves set on a loopback port, as rid does, and opens
// the load connections. m, when non-nil, receives the serving counters.
func startServer(set *experiments.DecisionSet, m *obs.Metrics) (*server, error) {
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := ridserver.New(ctx, ridserver.Config{
		Load:    func(context.Context) (*experiments.DecisionSet, error) { return set, nil },
		Metrics: m,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	s := &server{cancel: cancel, served: make(chan error, 1)}
	go func() { s.served <- srv.Serve(ctx, ln) }()
	for i := 0; i < ridConns; i++ {
		c, err := dial(ln.Addr().String())
		if err != nil {
			s.stop()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// stop closes the connections, drains the server and waits for it.
func (s *server) stop() error {
	for _, c := range s.clients {
		c.conn.Close()
	}
	s.cancel()
	return <-s.served
}
