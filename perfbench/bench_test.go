package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"vexus/internal/core"
)

// testAuthors keeps the tests' engines small; the workloads and checks
// are the same as in a full run.
const testAuthors = 300

func metricValue(t *testing.T, ms []metric, name string) float64 {
	t.Helper()
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	t.Fatalf("no metric %s", name)
	return 0
}

// The generators are a pure function of the seed (and the engine the
// trails are resolved on): the same seed gives byte-identical click,
// action and ingest lists, another seed others.
func TestGeneratorsDeterministic(t *testing.T) {
	d, err := generateData(1, testAuthors)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Build(d, pipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := planDigest(t, 1, eng), planDigest(t, 1, eng)
	if a != b {
		t.Fatalf("seed 1 gave %s then %s", a, b)
	}
	if c := planDigest(t, 2, eng); c == a {
		t.Fatalf("seeds 1 and 2 both gave %s", a)
	}
}

// A fixed delay injected by the benchmark's shard-handler wrapper must
// show in request_p50_ms by about its size, and in the layer it was put
// in: the shard handler's span and serve's self time rise by about the
// delay, while the gateway's self time and the optimizer's time do
// not. A gate that priced time with a model instead of measuring it
// would miss the first; a tracer that charged the delay to the wrong
// layer would fail the others.
func TestSensitivityToInjectedDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the explore workload twice")
	}
	const delay = 20 * time.Millisecond
	runWith := func(d time.Duration) *result {
		res, err := execute(options{workload: "explore", seed: 1, seconds: 2, trace: true,
			authors: testAuthors, shardDelay: d}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct {
			t.Fatalf("checks failed: %v", res.fails)
		}
		return res
	}
	base, slow := runWith(0), runWith(delay)
	want := float64(delay.Milliseconds())
	e2e := func(r *result) []metric { return r.e2e }
	layers := func(r *result) []metric { return r.metrics }
	rise := func(pick func(*result) []metric, name string) float64 {
		d := metricValue(t, pick(slow), name) - metricValue(t, pick(base), name)
		t.Logf("%s rose by %.2f ms", name, d)
		return d
	}
	if r := rise(e2e, "request_p50_ms"); r < 0.6*want || r > 1.6*want {
		t.Errorf("request_p50_ms rose by %.2f ms for an injected %.0f ms", r, want)
	}
	for _, name := range []string{"serve.handler_ms.actions.p50", "serve.self_ms.p50"} {
		if r := rise(layers, name); r < 0.6*want || r > 1.6*want {
			t.Errorf("%s rose by %.2f ms for an injected %.0f ms in the shard handler", name, r, want)
		}
	}
	for _, name := range []string{"cluster.gateway_self_ms.p50", "greedy.select_ms.p50"} {
		if r := rise(layers, name); math.Abs(r) > 0.25*want {
			t.Errorf("%s moved by %.2f ms; the delay is in the shard handler", name, r)
		}
	}
}

// Resyncs a traced stream saw reach serve.sse_resyncs.
func TestResyncsReported(t *testing.T) {
	ls := samples{}
	clientLayers(&outcome{resyncs: 2}, ls)
	e2e := endToEnd(&outcome{}, 1, 1, 1, 1)
	if got := metricValue(t, perLayer(ls, &outcome{}, e2e, e2e), "serve.sse_resyncs"); got != 2 {
		t.Fatalf("serve.sse_resyncs = %v, want 2", got)
	}
}

// A round's operations are those tagged with it, and it lasts from its
// first request to its last answer; rounds a client did not complete
// are left out, and with none complete the phase is one round. The
// deletes between rounds (round -1) are in none.
func TestRoundsOf(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(round int, startMs, durMs int) op {
		return op{kind: "explore", ok: true, round: round,
			start: t0.Add(time.Duration(startMs) * time.Millisecond), dur: time.Duration(durMs) * time.Millisecond}
	}
	ops := []op{at(0, 0, 10), at(0, 10, 30), at(-1, 40, 3), at(1, 43, 7), at(1, 50, 50), at(2, 100, 5)}
	rs := roundsOf(ops, 2, 9)
	if len(rs) != 2 || len(rs[0].ops) != 2 || len(rs[1].ops) != 2 {
		t.Fatalf("rounds %+v", rs)
	}
	if rs[0].secs != 0.04 || math.Abs(rs[1].secs-0.057) > 1e-12 {
		t.Fatalf("round lengths %v and %v, want 0.04 and 0.057", rs[0].secs, rs[1].secs)
	}
	if rs := roundsOf(ops, 0, 9); len(rs) != 1 || len(rs[0].ops) != len(ops)-1 || rs[0].secs != 9 {
		t.Fatalf("no complete round gave %+v", rs)
	}
}

// Each timing is the median over rounds of the round's figure: one
// stalled round out of three does not move it.
func TestEndToEndMedianOverRounds(t *testing.T) {
	t0 := time.Unix(0, 0)
	mk := func(durMs int) round {
		var r round
		for i := 0; i < 30; i++ {
			r.ops = append(r.ops, op{kind: "explore", ok: true, start: t0, dur: time.Duration(durMs) * time.Millisecond})
		}
		r.secs = float64(30*durMs) / 1000
		return r
	}
	e2e := endToEnd(&outcome{rounds: []round{mk(10), mk(200), mk(12)}}, 1, 1, 1, 1)
	for name, want := range map[string]float64{"request_p50_ms": 12, "explore_tail_ms": 12, "requests_per_s": 1000.0 / 12} {
		if got := metricValue(t, e2e, name); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// BENCHMARK.json names exactly the metrics the program reports: the
// end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd(&outcome{}, 1, 1, 1, 1)
	layers := perLayer(samples{}, &outcome{}, e2e, e2e)
	for _, c := range []struct {
		spec []struct{ Name, Unit string }
		got  []metric
	}{{spec.EndToEnd, e2e}, {spec.PerLayer, layers}} {
		if len(c.spec) != len(c.got) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program reports %d", len(c.spec), len(c.got))
		}
		for i, m := range c.got {
			if c.spec[i].Name != m.name || c.spec[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					i, c.spec[i].Name, c.spec[i].Unit, m.name, m.unit)
			}
		}
	}
}

// planDigest hashes the inputs a seed generates, for the determinism
// test: explore and budget trails, browse plans and ingest batches.
func planDigest(t *testing.T, seed uint64, eng *core.Engine) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, fam := range []uint64{famExplore, famBudget} {
		trails, err := makeTrails(seed, fam, eng, 4)
		if err != nil {
			t.Fatal(err)
		}
		_ = enc.Encode(trails)
	}
	for c := 0; c < 2; c++ {
		for i := 0; i < 8; i++ {
			for _, st := range browsePlan(seed, c, i) {
				fmt.Fprintf(h, "%v|", st)
			}
		}
	}
	for i := 0; i < 3; i++ {
		_ = enc.Encode(ingestBatch(seed, i))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
