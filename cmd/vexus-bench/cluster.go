package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"vexus/internal/action"
	"vexus/internal/cluster"
	"vexus/internal/greedy"
	"vexus/internal/serve"
)

// greedyDet is the deterministic optimizer config — the cluster
// migration-fidelity precondition, and what shard mode runs.
func greedyDet() greedy.Config {
	cfg := greedy.DefaultConfig()
	cfg.TimeLimit = 0
	return cfg
}

// ---------------------------------------------------------------------------
// P3 — cluster migration latency (the internal/cluster subsystem): a
// drain that migrates a population of sessions, seeded through a
// gateway, by trail replay. States are byte-identical across migration
// by the cluster contract (pinned by internal/cluster's equivalence
// tests); p3 measures what moving a session costs. The gateway's own
// per-request cost is measured by perfbench's traced run
// (cluster.gateway_self_ms).

func runP3(seed uint64, _ string) error {
	header("P3: session migration",
		"migration replays a session in milliseconds")

	eng, err := buildAuthors(seed, 1000, 0.02)
	if err != nil {
		return err
	}
	scfg := serve.DefaultConfig()
	scfg.ShardAPI = true
	gcfg := greedyDet()

	mkShard := func() *serve.Server { return serve.New(eng, gcfg, scfg) }
	s0, s1 := mkShard(), mkShard()
	defer s0.Close()
	defer s1.Close()

	gw, err := cluster.NewGateway(
		cluster.LocalShard("s0", s0.Routes()),
		cluster.LocalShard("s1", s1.Routes()),
	)
	if err != nil {
		return err
	}
	defer gw.Close()
	gwSrv := httptest.NewServer(gw.Routes())
	defer gwSrv.Close()

	// Migration latency: a population of sessions with real trails,
	// drained off their shard in one sweep.
	const population = 40
	const trailLen = 5
	for i := 0; i < population; i++ {
		if err := seedSession(gwSrv.URL, trailLen); err != nil {
			return fmt.Errorf("seeding session %d: %w", i, err)
		}
	}
	victim := gw.Shards()[0]
	t0 := time.Now()
	moved, err := gw.Drain(victim)
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	drainTime := time.Since(t0)
	perSession := 0.0
	if moved > 0 {
		perSession = float64(drainTime.Microseconds()) / 1000 / float64(moved)
	}

	fmt.Printf("drained %d sessions (trail %d) in %.1f ms — %.2f ms/session\n",
		moved, trailLen+1, float64(drainTime.Microseconds())/1000, perSession)

	return writeNote("cluster_routing", seed, struct {
		Moved        int     `json:"sessions_migrated"`
		TrailLen     int     `json:"trail_len"`
		DrainMS      float64 `json:"drain_ms"`
		PerSessionMS float64 `json:"migrate_per_session_ms"`
	}{
		Moved:        moved,
		TrailLen:     trailLen + 1,
		DrainMS:      float64(drainTime.Microseconds()) / 1000,
		PerSessionMS: perSession,
	})
}

// seedSession creates a session and walks it trailLen steps so the
// drain has a real trail to replay.
func seedSession(base string, trailLen int) error {
	st, err := createSession(base)
	if err != nil {
		return err
	}
	cur := st
	for i := 0; i < trailLen; i++ {
		next, err := applyExplore(base, st.Session, cur.Shown[i%len(cur.Shown)].ID)
		if err != nil {
			return err
		}
		cur = next
	}
	return nil
}

// benchState is the slice of the server state DTO the driver needs.
type benchState struct {
	Session string `json:"session"`
	Shown   []struct {
		ID int `json:"id"`
	} `json:"shown"`
}

func createSession(base string) (benchState, error) {
	var st benchState
	res, err := http.Post(base+"/api/v1/sessions", "application/json", nil)
	if err != nil {
		return st, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(res.Body)
		return st, fmt.Errorf("create: status %d: %s", res.StatusCode, body)
	}
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		return st, err
	}
	if len(st.Shown) < 2 {
		return st, fmt.Errorf("create: initial display too small (%d groups)", len(st.Shown))
	}
	return st, nil
}

func applyExplore(base, sid string, group int) (benchState, error) {
	var st benchState
	raw, err := json.Marshal([]action.Action{{Op: action.Explore, Group: group}})
	if err != nil {
		return st, err
	}
	res, err := http.Post(base+"/api/v1/sessions/"+sid+"/actions?full=1",
		"application/json", bytes.NewReader(raw))
	if err != nil {
		return st, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(res.Body)
		return st, fmt.Errorf("explore: status %d: %s", res.StatusCode, body)
	}
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		return st, err
	}
	return st, nil
}
