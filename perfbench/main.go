// Command perfbench is the repository's wall-clock benchmark: it starts
// the serving stack in this process (engine, shard servers, gateway on
// loopback listeners), drives one workload over HTTP for a fixed time,
// checks the outputs, and prints every metric with its unit. The last
// line of standard output is one JSON object. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      bool
	authors    int // overrides the workload's author count when set
	shardDelay time.Duration
}

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

type result struct {
	correct   bool
	attempted int
	failed    int
	fails     []string
	metrics   []metric
	// e2e holds the end-to-end metrics (also in a traced run, where
	// metrics holds the per-layer ones).
	e2e []metric
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "explore or budget")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for the dataset and every generated request")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed window")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload explore|budget, -seconds ≥ 1, -trace 0|1\n")
		return 2
	}
	res, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	for _, f := range res.fails {
		fmt.Fprintf(stderr, "check failed: %s\n", f)
	}
	line := map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   jsonMetrics(res.metrics),
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", enc)
	if !res.correct {
		return 1
	}
	return 0
}

func jsonMetrics(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}

// execute runs one workload and returns what the last line reports.
func execute(o options, report io.Writer) (*result, error) {
	w := workloads[o.workload]
	rec := &recorder{}
	authors := w.authors
	if o.authors > 0 {
		authors = o.authors
	}
	st, setupS, builds, err := setUp(stackConfig{seed: o.seed, authors: authors,
		cluster: w.cluster, shardDelay: o.shardDelay}, rec, setupRuns)
	if err != nil {
		return nil, err
	}
	defer st.close()
	b := &bench{name: o.workload, seed: o.seed, st: st, rec: rec, clients: w.clients, round: w.round,
		open: make([][]*session, w.clients), tracedActs: map[string]tracedAct{}}
	if b.trails, err = makeTrails(o.seed, w.fam, st.eng, w.trails); err != nil {
		return nil, err
	}
	window := time.Duration(o.seconds) * time.Second

	warm := b.phase(phaseWarm, warmUp)
	all := []*outcome{warm}
	var win, probe, tWin, tProbe *outcome
	if !o.trace {
		win = b.phase(phaseWindow, window)
	} else {
		// Traced and untraced halves of the window alternate as
		// untraced, traced, traced, untraced, and so do single ingest
		// batches below, so drift over the run and the dataset growing
		// batch by batch fall on both sides alike.
		half := window / 2
		win, tWin = &outcome{}, &outcome{}
		win.merge(b.phase(phaseWindow, half))
		tWin.merge(b.tracedRun(func() *outcome { return b.phase(phaseTraced, half) }))
		tWin.merge(b.tracedRun(func() *outcome { return b.phase(phaseTraced+phaseWindow/2, half) }))
		win.merge(b.phase(phaseWindow+phaseWindow/2, half))
	}
	// The replay check reads the explore sessions on the servers; then
	// every window session is deleted before the probes.
	b.checkReplay()
	b.closeOpen()

	// The ingest probe runs last: it moves the servers to a new engine
	// version.
	var rssMB float64
	if !o.trace {
		probe = b.browseProbe(phaseProbe)
		rssMB = peakRSSMB()
		probe.merge(b.ingestProbe(probeBatches))
		all = append(all, win, probe)
	} else {
		probe = &outcome{}
		tProbe = b.tracedRun(func() *outcome { return b.browseProbe(phaseProbe) })
		rssMB = peakRSSMB()
		probe.merge(b.ingestProbe(1))
		tProbe.merge(b.tracedRun(func() *outcome { return b.ingestProbe(1) }))
		tProbe.merge(b.tracedRun(func() *outcome { return b.ingestProbe(1) }))
		probe.merge(b.ingestProbe(1))
		all = append(all, win, probe, tWin, tProbe)
	}

	// Output checks after the probes: budget steps against the bound,
	// every ingest against a build.
	var steps []budgetStep
	for _, x := range all {
		steps = append(steps, x.steps...)
	}
	b.checkBudget(steps)
	b.checkIngest()

	var layers samples
	if o.trace {
		layers = samples{}
		applied := b.replayLayers(layers)
		spanLayers(b.rec.take(), applied, layers)
		both := &outcome{}
		both.merge(tWin)
		both.merge(tProbe)
		clientLayers(both, layers)
		layers["core.build_s"] = builds
		buildStages(st, layers)
		b.ingestReplay(2, layers)
		// The ingest probe's untraced batches, as the client saw them.
		for _, x := range probe.ops {
			if x.kind == "ingest" && x.ok {
				layers.add("probe.ingest_s", x.dur.Seconds())
			}
		}
	}

	res := &result{attempted: b.attempted, failed: b.failed, fails: b.fails}
	res.correct = b.failed == 0 && b.attempted > 0
	success := 0.0
	if b.attempted > 0 {
		success = float64(b.attempted-b.failed) / float64(b.attempted)
	}
	e2e := endToEnd(win, setupS, len(builds), rssMB, success)
	res.e2e = e2e
	if !o.trace {
		res.metrics = e2e
		printMetrics(report, "end-to-end ("+o.workload+")", e2e)
		printRounds(report, win)
		printIngests(report, probe)
		return res, nil
	}
	traced := endToEnd(tWin, setupS, len(builds), rssMB, success)
	res.metrics = perLayer(layers, tWin, e2e, traced)
	printMetrics(report, "end-to-end, untraced ("+o.workload+")", e2e)
	printMetrics(report, "per-layer, traced ("+o.workload+")", res.metrics)
	return res, nil
}

// endToEnd computes the user-visible metrics of a window. Each rate
// and timing is the median over the window's rounds of that round's
// figure, so a stall of the machine that spans less than half the
// rounds does not move it; the quality means are over every explore of
// those rounds.
func endToEnd(win *outcome, setupS float64, setupN int, rssMB, success float64) []metric {
	var rates, p50s, tails, xp50s, xtails []float64
	var obj, cov, div []float64
	nAll, nExplore := 0, 0
	for _, r := range win.rounds {
		var all, explore []float64
		for _, x := range r.ops {
			all = append(all, ms(x.dur))
			if x.kind != "explore" || !x.ok {
				continue
			}
			explore = append(explore, ms(x.dur))
			if x.metrics != nil {
				obj = append(obj, x.metrics.Objective)
				cov = append(cov, x.metrics.Coverage)
				div = append(div, x.metrics.Diversity)
			}
		}
		nAll += len(all)
		nExplore += len(explore)
		if len(all) > 0 && r.secs > 0 {
			rates = append(rates, float64(len(all))/r.secs)
			p50s = append(p50s, median(all))
			tails = append(tails, tail(all))
		}
		if len(explore) > 0 {
			xp50s = append(xp50s, median(explore))
			xtails = append(xtails, tail(explore))
		}
	}
	return []metric{
		{"setup_s", "s", setupS, setupN},
		{"requests_per_s", "1/s", median(rates), nAll},
		{"request_p50_ms", "ms", median(p50s), nAll},
		{"request_tail_ms", "ms", median(tails), nAll},
		{"explore_p50_ms", "ms", median(xp50s), nExplore},
		{"explore_tail_ms", "ms", median(xtails), nExplore},
		{"objective_mean", "1", mean(obj), len(obj)},
		{"coverage_mean", "1", mean(cov), len(cov)},
		{"diversity_mean", "1", mean(div), len(div)},
		{"success_rate", "1", success, 0},
		{"peak_rss_mb", "MB", rssMB, 1},
	}
}

// layerMetric names a per-layer metric and how it is derived from the
// samples: a quantile, a mean, a sum or a fixed value.
type layerMetric struct {
	name, unit, key string
	agg             string // p50, p99, mean, sum
}

var layerMetrics = []layerMetric{
	{"probe.ingest_s.p50", "s", "probe.ingest_s", "p50"},
	{"cluster.gateway_self_ms.p50", "ms", "cluster.gateway_self_ms", "p50"},
	{"cluster.gateway_self_ms.p99", "ms", "cluster.gateway_self_ms", "p99"},
	{"cluster.failed", "count", "cluster.failed", "sum"},
	{"cluster.ingest_self_s.p50", "s", "cluster.ingest_self_s", "p50"},
	{"serve.handler_ms.actions.p50", "ms", "serve.handler_ms.actions", "p50"},
	{"serve.handler_ms.actions.p99", "ms", "serve.handler_ms.actions", "p99"},
	{"serve.handler_ms.state.p50", "ms", "serve.handler_ms.state", "p50"},
	{"serve.handler_ms.state.p99", "ms", "serve.handler_ms.state", "p99"},
	{"serve.self_ms.p50", "ms", "serve.self_ms", "p50"},
	{"serve.failed", "count", "serve.failed", "sum"},
	{"serve.not_modified_ratio", "1", "serve.not_modified", "mean"},
	{"serve.response_kb.mean", "KB", "serve.response_kb", "mean"},
	{"serve.sse_lag_ms.p50", "ms", "serve.sse_lag_ms", "p50"},
	{"serve.sse_lag_ms.p99", "ms", "serve.sse_lag_ms", "p99"},
	{"serve.sse_resyncs", "count", "serve.sse_resyncs", "sum"},
	{"serve.ingest_shard_s.p50", "s", "serve.ingest_shard_s", "p50"},
	{"action.apply_ms.p50.explore", "ms", "action.apply_ms.explore", "p50"},
	{"action.apply_ms.p50.backtrack", "ms", "action.apply_ms.backtrack", "p50"},
	{"action.apply_ms.p50.focus", "ms", "action.apply_ms.focus", "p50"},
	{"action.apply_ms.p50.brush", "ms", "action.apply_ms.brush", "p50"},
	{"action.apply_ms.p50.bookmarkGroup", "ms", "action.apply_ms.bookmarkGroup", "p50"},
	{"action.apply_ms.p50.unlearn", "ms", "action.apply_ms.unlearn", "p50"},
	{"action.self_ms.p50", "ms", "action.self_ms", "p50"},
	{"core.explore_self_ms.p50", "ms", "core.explore_self_ms", "p50"},
	{"core.focus_ms.p50", "ms", "core.focus_ms", "p50"},
	{"core.build_s", "s", "core.build_s", "p50"},
	{"core.build.encode_s", "s", "core.build.encode_s", "p50"},
	{"core.build.mine_s", "s", "core.build.mine_s", "p50"},
	{"core.build.space_s", "s", "core.build.space_s", "p50"},
	{"core.build.index_s", "s", "core.build.index_s", "p50"},
	{"core.ingest_s.p50", "s", "core.ingest_s", "p50"},
	{"greedy.select_ms.p50", "ms", "greedy.select_ms", "p50"},
	{"greedy.select_ms.p99", "ms", "greedy.select_ms", "p99"},
	{"greedy.self_ms.p50", "ms", "greedy.self_ms", "p50"},
	{"greedy.candidates.mean", "count", "greedy.candidates", "mean"},
	{"greedy.swap_rounds.mean", "count", "greedy.swap_rounds", "mean"},
	{"greedy.deadline_hit_rate", "1", "greedy.deadline_hit", "mean"},
	{"greedy.filled_by_similarity", "count", "greedy.filled_by_similarity", "mean"},
	{"index.neighbors_ms.p50", "ms", "index.neighbors_ms", "p50"},
	{"index.prefix_hit_ratio", "1", "index.prefix_hit", "mean"},
	{"index.focal_repeat_ratio", "1", "index.focal_repeat", "mean"},
	{"index.pool_capped_ratio", "1", "index.pool_capped", "mean"},
	{"runtime.gc_cycles", "count", "runtime.gc_cycles", "sum"},
	{"runtime.gc_pause_ms", "ms", "runtime.gc_pause_ms", "sum"},
}

// noOverhead are the end-to-end metrics a traced window cannot move:
// set-up runs once, before any window; the checks pass or the run
// fails; and the peak resident set is one high-water mark for the
// whole process.
var noOverhead = map[string]bool{"setup_s": true, "success_rate": true, "peak_rss_mb": true}

// perLayer aggregates the traced run's samples, then adds the tracing
// overhead of the end-to-end metrics a trace can move: the traced
// halves of the window against the untraced ones, in percent.
func perLayer(ls samples, tWin *outcome, untraced, traced []metric) []metric {
	ls.add("runtime.gc_cycles", tWin.gcCycles)
	ls.add("runtime.gc_pause_ms", tWin.gcPause)
	var out []metric
	for _, lm := range layerMetrics {
		xs := ls[lm.key]
		var v float64
		switch lm.agg {
		case "p50":
			v = median(xs)
		case "p99":
			v = quantile(xs, 0.99)
		case "mean":
			v = mean(xs)
		case "sum":
			for _, x := range xs {
				v += x
			}
		}
		out = append(out, metric{lm.name, lm.unit, v, len(xs)})
	}
	for i, u := range untraced {
		if noOverhead[u.name] {
			continue
		}
		pct := 0.0
		if u.value != 0 {
			pct = (traced[i].value - u.value) / u.value * 100
		}
		out = append(out, metric{"overhead." + u.name + "_pct", "%", pct, traced[i].n})
	}
	return out
}

// printRounds lists each round's request rate, so drift within a run
// shows.
func printRounds(w io.Writer, win *outcome) {
	fmt.Fprintf(w, "# %d rounds, requests_per_s:", len(win.rounds))
	for _, r := range win.rounds {
		fmt.Fprintf(w, " %.4g", float64(len(r.ops))/r.secs)
	}
	fmt.Fprintln(w)
}

// printIngests lists each ingest batch's time.
func printIngests(w io.Writer, probe *outcome) {
	fmt.Fprintf(w, "# ingest batches, s:")
	for _, x := range probe.ops {
		if x.kind == "ingest" {
			fmt.Fprintf(w, " %.3f", x.dur.Seconds())
		}
	}
	fmt.Fprintln(w)
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "# %s\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "%-38s %14s %-6s n=%d\n", m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit, m.n)
	}
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
