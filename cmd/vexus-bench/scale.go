package main

import (
	"fmt"

	"vexus/internal/loadsim"
)

// p7 knobs (registered in main). Zero values defer to the -scale
// presets; -chaos "" keeps the preset's default schedule.
var (
	p7Users  int
	p7Live   int
	p7Shards int
	p7Ticks  int
	p7Chaos  string
)

// runP7 is the cluster-scale load/chaos experiment: a Zipf population
// of simulated analysts driving a multi-shard in-process cluster
// through the real v1 API and SSE streams while the default fault
// schedule (kill, gateway restart, partition/heal, drain, engine
// eviction) runs, with every fail-closed invariant asserted: any
// violation fails the run. It reports no latency; the serving stack's
// wall-clock numbers come from perfbench (perfbench/README.md).
func runP7(seed uint64, scale string) error {
	header("p7", "cluster fails closed under churn: no misroutes, ETag breaks, epoch violations or ghost sessions")

	cfg := loadsim.Config{
		Users:  2_000,
		Live:   48,
		Shards: 3,
		Ticks:  60,
		Seed:   seed,
		Chaos:  "default",
	}
	if scale == "paper" {
		cfg.Users = 10_000
		cfg.Ticks = 120
		cfg.Live = 64
	}
	if p7Users > 0 {
		cfg.Users = p7Users
	}
	if p7Live > 0 {
		cfg.Live = p7Live
	}
	if p7Shards > 0 {
		cfg.Shards = p7Shards
	}
	if p7Ticks > 0 {
		cfg.Ticks = p7Ticks
	}
	switch p7Chaos {
	case "":
	case "none":
		cfg.Chaos = ""
	default:
		cfg.Chaos = p7Chaos
	}
	cfg.Workers = workersFlag

	s, err := loadsim.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Printf("%-26s %12s\n", "metric", "value")
	fmt.Printf("%-26s %12d\n", "analysts", s.Users)
	fmt.Printf("%-26s %12d\n", "virtual actions", s.VirtualActions)
	fmt.Printf("%-26s %12d\n", "live creates", s.LiveCreates)
	fmt.Printf("%-26s %12d\n", "sessions lost", s.SessionsLost)
	fmt.Printf("%-26s %12d\n", "drain moved", s.DrainMoved)
	fmt.Printf("%-26s %12d\n", "engine evictions", s.EngineEvictions)
	fmt.Printf("%-26s %12d\n", "sse events delivered", s.SSEDelivered)
	fmt.Println()
	for _, ev := range s.ChaosApplied {
		fmt.Printf("chaos: %s\n", ev)
	}

	violations := s.MisroutedSessions + s.EtagBreaks + s.EpochViolations +
		s.ChaosErrors + s.AuditFailures + s.FailOpenSessions
	if !s.RestartPreserved {
		violations++
	}
	if violations != 0 {
		return fmt.Errorf("p7: %d fail-closed violations (misrouted=%d etag=%d epoch=%d chaos=%d audit=%d failopen=%d restartOK=%v)",
			violations, s.MisroutedSessions, s.EtagBreaks, s.EpochViolations,
			s.ChaosErrors, s.AuditFailures, s.FailOpenSessions, s.RestartPreserved)
	}
	fmt.Printf("\nfail-closed invariants: all clean (misrouted 0, etag breaks 0, epoch violations 0, ghosts 0)\n")

	return writeNote("cluster_scale", seed, struct {
		Summary *loadsim.Summary `json:"summary"`
	}{s})
}
