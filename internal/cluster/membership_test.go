package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/dataset"
	"vexus/internal/membership"
	"vexus/internal/serve"
)

// countingHandler wraps a shard handler and counts every request that
// reaches it — the instrument behind the zero-re-resolution assertion.
type countingHandler struct {
	h http.Handler
	n atomic.Int64
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.n.Add(1)
	c.h.ServeHTTP(w, r)
}

// testDataset rebuilds the fixture engine's inputs — what a warm-only
// joiner needs to verify an incoming snapshot stream.
func testDataset(t testing.TB) (*dataset.Dataset, core.PipelineConfig) {
	t.Helper()
	data, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultPipelineConfig()
	cfg.Encode = datagen.DBAuthorsEncodeOptions()
	cfg.MinSupportFrac = 0.03
	return data, cfg
}

// TestDurableRouteTableReload is the restart regression the route table
// exists for: a gateway reconstructed from its persisted table resumes
// at the saved epoch with the full shard set and identical placement —
// and sends ZERO requests to any shard to get there.
func TestDurableRouteTableReload(t *testing.T) {
	eng := testEngine(t)
	path := filepath.Join(t.TempDir(), "routes.json")

	handlers := map[string]*countingHandler{}
	mkShard := func(name string) *Shard {
		ch := &countingHandler{h: shardServer(t, eng).Routes()}
		handlers[name] = ch
		return LocalShard(name, ch)
	}

	gwA, err := NewGatewayConfig(GatewayConfig{RoutesPath: path}, mkShard("s0"), mkShard("s1"))
	if err != nil {
		t.Fatal(err)
	}
	if gwA.Epoch() != 1 {
		t.Fatalf("epoch after static seed = %d, want 1", gwA.Epoch())
	}
	// Warm-join a third member (already resident → idempotent stream).
	if _, err := gwA.Join(mkShard("s2")); err != nil {
		t.Fatal(err)
	}
	epochA := gwA.Epoch()
	if epochA != 2 {
		t.Fatalf("epoch after join = %d, want 2", epochA)
	}
	shardsA := gwA.Shards()
	gwA.Close()

	// Reconstruct from the table alone: no static shards, a dial hook
	// that hands back in-process clients. Count every shard request
	// from here on.
	for _, ch := range handlers {
		ch.n.Store(0)
	}
	dialed := 0
	gwB, err := NewGatewayConfig(GatewayConfig{
		RoutesPath: path,
		Dial: func(name, addr string) *Shard {
			dialed++
			return LocalShard(name, handlers[name])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gwB.Close)

	if got := gwB.Shards(); fmt.Sprint(got) != fmt.Sprint(shardsA) {
		t.Fatalf("reloaded shard set %v, want %v", got, shardsA)
	}
	if gwB.Epoch() != epochA {
		t.Fatalf("reloaded epoch = %d, want %d", gwB.Epoch(), epochA)
	}
	if dialed != 3 {
		t.Fatalf("dialed %d members, want 3", dialed)
	}
	for name, ch := range handlers {
		if n := ch.n.Load(); n != 0 {
			t.Fatalf("gateway reload sent %d requests to %s; reload must not re-resolve against shards", n, name)
		}
	}

	// Same epoch ⇒ identical placement, checked at the hash level over
	// a large sid population.
	for i := 0; i < 1000; i++ {
		sid := fmt.Sprintf("sid-%04d", i)
		if Owner(shardsA, sid) != Owner(gwB.Shards(), sid) {
			t.Fatalf("placement diverged for %s", sid)
		}
	}

	// And the reloaded gateway actually serves: a create lands.
	ts := httptest.NewServer(gwB.Routes())
	t.Cleanup(ts.Close)
	if st, _ := createV1(t, ts.URL); st.Session == "" {
		t.Fatal("create through reloaded gateway failed")
	}
}

// TestTwoGatewaysSamePlacement: two gateways independently constructed
// over the same member set hold the same epoch and route every session
// identically — a session created through one is served through the
// other with no route state shared between them.
func TestTwoGatewaysSamePlacement(t *testing.T) {
	eng := testEngine(t)
	h0 := shardServer(t, eng).Routes()
	h1 := shardServer(t, eng).Routes()
	h2 := shardServer(t, eng).Routes()

	gw1, err := NewGateway(LocalShard("s0", h0), LocalShard("s1", h1), LocalShard("s2", h2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw1.Close)
	// Different construction order: placement must not depend on it.
	gw2, err := NewGateway(LocalShard("s2", h2), LocalShard("s0", h0), LocalShard("s1", h1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw2.Close)

	if gw1.Epoch() != gw2.Epoch() {
		t.Fatalf("independent gateways disagree on epoch: %d vs %d", gw1.Epoch(), gw2.Epoch())
	}
	ts1 := httptest.NewServer(gw1.Routes())
	ts2 := httptest.NewServer(gw2.Routes())
	t.Cleanup(ts1.Close)
	t.Cleanup(ts2.Close)
	for i := 0; i < 10; i++ {
		st, _ := createV1(t, ts1.URL)
		if _, _, status := getStateRaw(t, ts2.URL, st.Session); status != http.StatusOK {
			t.Fatalf("session %s created via gw1 not served via gw2: status %d", st.Session, status)
		}
	}
}

// TestRendezvousMinimalDisruption pins the property the whole topology
// design leans on: adding one member to N remaps ~1/(N+1) of a large
// sid population onto the newcomer and nothing else moves; removing
// one member remaps exactly the sids it owned.
func TestRendezvousMinimalDisruption(t *testing.T) {
	names := []string{"s0", "s1", "s2", "s3", "s4"}
	grown := append(append([]string{}, names...), "s5")
	const population = 20000

	moved, movedElsewhere := 0, 0
	ownedByS2, movedOffS2 := 0, 0
	shrunk := []string{"s0", "s1", "s3", "s4"} // s2 removed
	for i := 0; i < population; i++ {
		sid := fmt.Sprintf("session-%05d", i)
		before := Owner(names, sid)

		// Grow: the only allowed movement is onto the newcomer.
		after := Owner(grown, sid)
		if after != before {
			moved++
			if after != "s5" {
				movedElsewhere++
			}
		}

		// Shrink: only s2's sids move.
		if before == "s2" {
			ownedByS2++
		}
		if postRemove := Owner(shrunk, sid); postRemove != before {
			movedOffS2++
			if before != "s2" {
				t.Fatalf("removing s2 moved %s owned by %s", sid, before)
			}
		}
	}
	if movedElsewhere != 0 {
		t.Fatalf("%d sids moved between surviving members on grow", movedElsewhere)
	}
	frac := float64(moved) / population
	if frac < 0.12 || frac > 0.22 {
		t.Fatalf("grow remapped %.3f of sids, want ~1/6", frac)
	}
	if movedOffS2 != ownedByS2 {
		t.Fatalf("shrink moved %d sids, s2 owned %d", movedOffS2, ownedByS2)
	}
}

// TestWarmJoinAbortMidStream kills the snapshot stream mid-transfer and
// asserts the join fails closed end to end: the joiner is never
// admitted, the epoch never moves, and the joiner keeps refusing
// traffic.
func TestWarmJoinAbortMidStream(t *testing.T) {
	eng := testEngine(t)

	// Donor whose snapshot endpoint truncates the stream halfway.
	donorInner := shardServer(t, eng).Routes()
	donorH := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/internal/cluster/snapshot") {
			rec := httptest.NewRecorder()
			donorInner.ServeHTTP(rec, r)
			raw := rec.Body.Bytes()
			for k, vs := range rec.Header() {
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.Code)
			w.Write(raw[:len(raw)/2])
			return
		}
		donorInner.ServeHTTP(w, r)
	})

	gw, err := NewGateway(LocalShard("s0", donorH))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)

	data, pcfg := testDataset(t)
	scfg := serve.DefaultConfig()
	scfg.ShardAPI = true
	joiner := serve.NewPending("default", data, pcfg, detGreedy(), scfg)
	t.Cleanup(joiner.Close)
	joinerH := joiner.Routes()

	epochBefore := gw.Epoch()
	if _, err := gw.Join(LocalShard("s1", joinerH)); err == nil {
		t.Fatal("join with a truncated snapshot stream should fail")
	}
	if got := gw.Shards(); len(got) != 1 {
		t.Fatalf("aborted join admitted the shard: %v", got)
	}
	if gw.Epoch() != epochBefore {
		t.Fatalf("aborted join moved the epoch: %d -> %d", epochBefore, gw.Epoch())
	}
	// The joiner installed nothing: still failing closed.
	rec := httptest.NewRecorder()
	joinerH.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("joiner readyz after aborted join = %d, want 503", rec.Code)
	}

	// An intact donor warms the same joiner successfully — proving the
	// abort above was the stream's fault, not the harness's.
	gw2, err := NewGateway(LocalShard("s0", shardServer(t, eng).Routes()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw2.Close)
	if _, err := gw2.Join(LocalShard("s1", joinerH)); err != nil {
		t.Fatalf("join with intact stream: %v", err)
	}
	rec = httptest.NewRecorder()
	joinerH.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("joiner readyz after warm join = %d, want 200", rec.Code)
	}
}

// TestGatewayFailureDetection drives the gossip lifecycle end to end:
// a joined member that stops heartbeating is suspected, then marked
// down (epoch bump, readyz names it, routes fail closed), and a
// heartbeat brings it back (epoch bump, ready again).
func TestGatewayFailureDetection(t *testing.T) {
	eng := testEngine(t)
	h1 := shardServer(t, eng).Routes()
	gw, err := NewGatewayConfig(GatewayConfig{
		SuspectAfter: 150 * time.Millisecond,
		DownAfter:    300 * time.Millisecond,
	}, LocalShard("s0", shardServer(t, eng).Routes()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	ts := httptest.NewServer(gw.Routes())
	t.Cleanup(ts.Close)

	if _, err := gw.Join(LocalShard("s1", h1)); err != nil {
		t.Fatal(err)
	}
	epochJoined := gw.Epoch()

	heartbeat := func(name string) (int, membership.Ack) {
		t.Helper()
		body, _ := json.Marshal(membership.Member{Name: name})
		res, err := http.Post(ts.URL+"/internal/cluster/heartbeat", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var ack membership.Ack
		if res.StatusCode == http.StatusOK {
			if err := json.NewDecoder(res.Body).Decode(&ack); err != nil {
				t.Fatal(err)
			}
		} else {
			io.Copy(io.Discard, res.Body)
		}
		return res.StatusCode, ack
	}

	// The ack is the gossip piggyback: epoch plus full roster.
	status, ack := heartbeat("s1")
	if status != http.StatusOK || ack.Epoch != epochJoined || len(ack.Members) != 2 {
		t.Fatalf("heartbeat ack: status %d, %+v", status, ack)
	}
	// Unknown members don't get in via gossip.
	if status, _ := heartbeat("stranger"); status != http.StatusNotFound {
		t.Fatalf("unknown member heartbeat: status %d, want 404", status)
	}

	// s1 goes silent; the sweeper marks it down within a few horizons.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatal("timeout waiting for " + what)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitFor("s1 marked down", func() bool { return gw.Epoch() == epochJoined+1 })

	// readyz names the downed member.
	res, err := http.Get(ts.URL + "/api/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "s1") {
		t.Fatalf("readyz with down member: status %d body %q", res.StatusCode, body)
	}
	// The status body and metrics agree.
	st := gw.Status()
	if st.Epoch != epochJoined+1 {
		t.Fatalf("status epoch %d", st.Epoch)
	}
	downSeen := false
	for _, mi := range st.Members {
		if mi.Name == "s1" && mi.State == membership.StateDown {
			downSeen = true
		}
	}
	if !downSeen {
		t.Fatalf("status members missing down verdict: %+v", st.Members)
	}
	mres, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mres.Body)
	mres.Body.Close()
	if !strings.Contains(string(mbody), `vexus_cluster_members{state="down"} 1`) {
		t.Fatal("metrics missing down member gauge")
	}
	if !strings.Contains(string(mbody), fmt.Sprintf("vexus_cluster_epoch %d", epochJoined+1)) {
		t.Fatal("metrics missing epoch gauge")
	}

	// Creates keep landing — on the survivor only.
	for i := 0; i < 5; i++ {
		if st, _ := createV1(t, ts.URL); st.Session == "" {
			t.Fatal("create with one member down failed")
		}
	}

	// Recovery: one heartbeat re-enters the routing set.
	status, ack = heartbeat("s1")
	if status != http.StatusOK || ack.Epoch != epochJoined+2 {
		t.Fatalf("recovery heartbeat: status %d epoch %d, want %d", status, ack.Epoch, epochJoined+2)
	}
	waitFor("ready again", func() bool {
		res, err := http.Get(ts.URL + "/api/v1/readyz")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		return res.StatusCode == http.StatusOK
	})
}

// TestGatewayClusterAuth: with a secret configured, unauthenticated
// /internal/cluster/* requests are rejected at both layers, while the
// gateway's own hops (create, migrate, warm join) authenticate
// transparently.
func TestGatewayClusterAuth(t *testing.T) {
	eng := testEngine(t)
	const secret = "swordfish"

	mkShard := func(name string) *Shard {
		scfg := serve.DefaultConfig()
		scfg.ShardAPI = true
		scfg.ClusterSecret = secret
		s := serve.New(eng, detGreedy(), scfg)
		t.Cleanup(s.Close)
		return LocalShard(name, s.Routes())
	}
	gw, err := NewGatewayConfig(GatewayConfig{Secret: secret}, mkShard("s0"), mkShard("s1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	ts := httptest.NewServer(gw.Routes())
	t.Cleanup(ts.Close)

	// Gateway-side: heartbeat rejects without the secret...
	body, _ := json.Marshal(membership.Member{Name: "s0"})
	res, err := http.Post(ts.URL+"/internal/cluster/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated heartbeat: status %d, want 401", res.StatusCode)
	}
	// ...and accepts with it.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/internal/cluster/heartbeat", bytes.NewReader(body))
	req.Header.Set(membership.SecretHeader, secret)
	res, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("authenticated heartbeat: status %d", res.StatusCode)
	}

	// The gateway's own hops carry the secret: creates, drains
	// (export/import/delete), and warm joins all work.
	sids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		st, _ := createV1(t, ts.URL)
		sids = append(sids, st.Session)
	}
	if _, err := gw.Join(mkShard("s2")); err != nil {
		t.Fatalf("authenticated warm join: %v", err)
	}
	if _, err := gw.Drain("s1"); err != nil {
		t.Fatalf("authenticated drain: %v", err)
	}
	for _, sid := range sids {
		if _, _, status := getStateRaw(t, ts.URL, sid); status != http.StatusOK {
			t.Fatalf("session %s lost across authenticated drain: status %d", sid, status)
		}
	}
}

// TestSurvivorGuardReadsDirectory: the survivor check counts the
// directory's routable, non-draining members, not the client cache. A
// down member keeps its client, so with s1 down neither draining nor
// removing s0 may proceed — either would leave no shard to place on.
func TestSurvivorGuardReadsDirectory(t *testing.T) {
	eng := testEngine(t)
	now := time.Unix(1_700_000_000, 0)
	gw, err := NewGatewayConfig(GatewayConfig{
		Clock:        func() time.Time { return now },
		ManualSweep:  true,
		SuspectAfter: time.Second,
		DownAfter:    2 * time.Second,
	}, LocalShard("s0", shardServer(t, eng).Routes()), LocalShard("s1", shardServer(t, eng).Routes()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	// One heartbeat ends s1's static grace; then it falls silent.
	if _, _, err := gw.dir.Heartbeat(membership.Member{Name: "s1"}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(3 * time.Second)
	gw.SweepMembership()
	if got := fmt.Sprint(gw.Shards()); got != "[s0]" {
		t.Fatalf("shards with s1 down = %s, want [s0]", got)
	}

	for _, op := range []struct {
		name string
		call func(string) (int, error)
	}{{"drain", gw.Drain}, {"remove", gw.Remove}} {
		if _, err := op.call("s0"); err == nil || !strings.Contains(err.Error(), "no shard would remain") {
			t.Fatalf("%s s0 with s1 down: err %v, want no shard would remain", op.name, err)
		}
		if got := fmt.Sprint(gw.Shards()); got != "[s0]" {
			t.Fatalf("shards after refused %s = %s, want [s0]", op.name, got)
		}
	}
}

// TestInterruptedDrainReload: the draining flag persists with the route
// table, so a gateway reopened from the table of a drain that never
// finished places no new session on the draining member, reports it
// draining, and can finish the drain.
func TestInterruptedDrainReload(t *testing.T) {
	eng := testEngine(t)
	path := filepath.Join(t.TempDir(), "routes.json")
	h0, h1 := shardServer(t, eng).Routes(), shardServer(t, eng).Routes()

	gwA, err := NewGatewayConfig(GatewayConfig{RoutesPath: path}, LocalShard("s0", h0), LocalShard("s1", h1))
	if err != nil {
		t.Fatal(err)
	}
	// The state Drain leaves between marking s1 and migrating its
	// sessions, as a crash at that point would persist it.
	gwA.dir.SetDraining("s1", true)
	gwA.Close()

	gwB, err := NewGatewayConfig(GatewayConfig{RoutesPath: path}, LocalShard("s0", h0), LocalShard("s1", h1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gwB.Close)
	ts := httptest.NewServer(gwB.Routes())
	t.Cleanup(ts.Close)
	for i := 0; i < 16; i++ {
		createV1(t, ts.URL)
	}
	for _, row := range gwB.Status().Shards {
		if row.Name == "s1" && (!row.Draining || row.Sessions != 0) {
			t.Fatalf("reloaded draining member: %+v, want draining with 0 sessions", row)
		}
	}
	if _, err := gwB.Drain("s1"); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(gwB.Shards()); got != "[s0]" {
		t.Fatalf("shards after the resumed drain = %s, want [s0]", got)
	}
}
