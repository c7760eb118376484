package main

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/greedy"
	"vexus/internal/serve"
	"vexus/internal/telemetry"
)

// ---------------------------------------------------------------------------
// P6 — telemetry overhead: the full observability stack (HTTP
// middleware with trace propagation, per-route counters and latency
// histograms, the action-apply timing hook) against the identical
// server with telemetry.Disabled, which makes every instrument a
// nil no-op and leaves Routes() unwrapped. Both variants serve the
// same engine and run the same request script through ServeHTTP
// directly — no sockets — in interleaved A/B rounds so clock drift
// and thermal state cancel. The paper-facing claim: observability is
// always-on because it costs under 2% of the hot serving path.

// p6Round drives one scripted round against a server: one mutation
// batch (explore a shown group, backtrack to the initial display, so
// session state never grows) plus four state reads.
func p6Round(h http.Handler, sid string) error {
	body := `[{"op":"explore","group":0},{"op":"backtrack","step":0}]`
	req := httptest.NewRequest(http.MethodPost, "/api/v1/sessions/"+sid+"/actions", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("p6: actions: status %d: %s", rec.Code, rec.Body.String())
	}
	for i := 0; i < 4; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/sessions/"+sid+"/state", nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("p6: state: status %d", rec.Code)
		}
	}
	return nil
}

func runP6(seed uint64, _ string) error {
	header("P6: telemetry overhead",
		"full instrumentation (middleware + counters + histograms + apply timing) costs <2% on the hot serving path")

	d, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 1000, Seed: seed})
	if err != nil {
		return err
	}
	cfg := core.DefaultPipelineConfig()
	cfg.Encode = datagen.DBAuthorsEncodeOptions()
	cfg.MinSupportFrac = 0.02
	cfg.Workers = workersFlag
	eng, err := core.Build(d, cfg)
	if err != nil {
		return err
	}
	gcfg := greedy.DefaultConfig()
	gcfg.TimeLimit = 0

	// Both variants log above Debug into the void: span logging is off,
	// so the disabled variant's Routes() registers raw handlers — the
	// true zero-instrumentation baseline.
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	newServer := func(reg *telemetry.Registry) (http.Handler, string, error) {
		scfg := serve.DefaultConfig()
		scfg.Telemetry = reg
		scfg.Logger = quiet
		h := serve.New(eng, gcfg, scfg).Routes()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/sessions", nil))
		if rec.Code != http.StatusCreated {
			return nil, "", fmt.Errorf("p6: create: status %d: %s", rec.Code, rec.Body.String())
		}
		loc := rec.Result().Header.Get("Location")
		return h, loc[strings.LastIndexByte(loc, '/')+1:], nil
	}

	instrumented, sidA, err := newServer(nil) // nil = fresh registry: metrics fully on
	if err != nil {
		return err
	}
	disabled, sidB, err := newServer(telemetry.Disabled)
	if err != nil {
		return err
	}

	const warmup, rounds = 30, 500
	for i := 0; i < warmup; i++ {
		if err := p6Round(instrumented, sidA); err != nil {
			return err
		}
		if err := p6Round(disabled, sidB); err != nil {
			return err
		}
	}
	var instrTime, disTime time.Duration
	for i := 0; i < rounds; i++ {
		// Alternate which variant goes first each round so any slow
		// drift (GC phase, CPU frequency) debits both sides equally.
		first, second := instrumented, disabled
		sidF, sidS := sidA, sidB
		tF, tS := &instrTime, &disTime
		if i%2 == 1 {
			first, second, sidF, sidS, tF, tS = disabled, instrumented, sidB, sidA, &disTime, &instrTime
		}
		t0 := time.Now()
		if err := p6Round(first, sidF); err != nil {
			return err
		}
		*tF += time.Since(t0)
		t0 = time.Now()
		if err := p6Round(second, sidS); err != nil {
			return err
		}
		*tS += time.Since(t0)
	}

	instrMS := float64(instrTime.Microseconds()) / 1000
	disMS := float64(disTime.Microseconds()) / 1000
	overheadPct := (instrMS - disMS) / disMS * 100
	reqs := rounds * 5

	fmt.Printf("%-24s %12s\n", "variant", "total ms")
	fmt.Printf("%-24s %12.1f\n", "instrumented", instrMS)
	fmt.Printf("%-24s %12.1f\n", "telemetry.Disabled", disMS)
	fmt.Printf("\n%d rounds (%d requests each side): overhead %+.2f%% (budget 2%%)\n",
		rounds, reqs, overheadPct)

	return writeNote("obs_overhead", seed, struct {
		Rounds         int     `json:"rounds"`
		Requests       int     `json:"requests_per_variant"`
		InstrumentedMS float64 `json:"instrumented_ms"`
		DisabledMS     float64 `json:"disabled_ms"`
		OverheadPct    float64 `json:"overhead_pct"`
		BudgetPct      float64 `json:"budget_pct"`
	}{
		Rounds:         rounds,
		Requests:       reqs,
		InstrumentedMS: instrMS,
		DisabledMS:     disMS,
		OverheadPct:    overheadPct,
		BudgetPct:      2,
	})
}
