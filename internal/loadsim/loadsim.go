// Package loadsim is the cluster-scale workload and fault-injection
// harness: a deterministic synthetic population of analysts driving a
// multi-shard in-process cluster (gateway + cluster.LocalShard
// workers) through the v1 action API and the SSE diff stream under a
// scripted chaos schedule, with every fail-closed invariant audited.
//
// The population is two-layered. Every simulated analyst lives in the
// virtual layer: a per-user rng.Derive stream decides, tick by tick,
// whether the analyst acts and which operation they pick
// (explore/backtrack/focus+brush), and each act is booked against the
// owning shard as served, unavailable, or lost with it. The first
// Config.Live analysts are additionally *live*: they create real
// sessions through the gateway, POST real action batches (?full=1),
// and a deterministic subset holds real SSE subscriptions — so
// routing, migration, ETag continuity and stream teardown are
// exercised against the real stack while the population provides
// cluster-scale load shape.
//
// The harness reports no latency: virtual acts never reach a shard, so
// any time attached to them would be modeled, not measured. Wall-clock
// numbers for the serving stack come from the perfbench module
// (perfbench/README.md).
//
// Determinism contract: with the same Config (Workers excluded), the
// Summary is bit-identical at any worker count. Everything the Summary
// reports is derived from per-user rng streams drawn in slot-written
// parallel.ForEach phases and accumulated in a fixed sequential order;
// wall-clock time never enters it. The cluster runs on an injected
// virtual clock (one tick = one virtual second), the gateway sweeps
// membership only when told (GatewayConfig.ManualSweep), session ids
// are minted by the harness, and SSE queues are sized so no subscriber
// is ever dropped to a resync by backpressure.
package loadsim

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"vexus/internal/cluster"
	"vexus/internal/greedy"
	"vexus/internal/parallel"
	"vexus/internal/rng"
	"vexus/internal/serve"
	"vexus/internal/telemetry"
)

// loadsimUserStream is the rng.Derive stream family base for per-user
// streams — disjoint from the internal/simulate families (1..3 << 40).
const loadsimUserStream uint64 = 9 << 40

// Config parameterizes one load/chaos run. The zero value is not
// runnable; Run applies the documented defaults to zero fields.
type Config struct {
	// Users is the population size (default 10_000). User index 0 is
	// the hottest analyst (Zipf-style rank-frequency arrival rates).
	Users int
	// Live is how many of the first Users indices drive real sessions
	// through the gateway (default 64, capped at Users).
	Live int
	// Shards is the cluster size (default 3); shards are named
	// "s0".."s<n-1>".
	Shards int
	// Ticks is the virtual duration (default 120; one tick = 1s).
	Ticks int
	// Workers is the parallel.ForEach worker count for the per-tick
	// population phase (0 = NumCPU). Not part of the Summary: results
	// are bit-identical at any worker count.
	Workers int
	// Seed is the master seed; per-user streams derive from it.
	Seed uint64
	// ZipfS is the rank-frequency exponent of arrival rates (default
	// 1.1); PeakRate/MinRate clamp the per-tick act probability
	// (defaults 0.9 / 0.01).
	ZipfS    float64
	PeakRate float64
	MinRate  float64
	// SuspectTicks / DownTicks tune failure detection in virtual
	// seconds (defaults 3 / 6).
	SuspectTicks int
	DownTicks    int
	// Chaos is the fault schedule: "tick:op[:target]" comma-separated
	// (see ParseSchedule), "default" for DefaultSchedule(Shards,
	// Ticks), "" for a fault-free run.
	Chaos string
	// DatasetN / SpareN size the main and spare synthetic datasets
	// (defaults 240 / 96). The spare exists so the evict chaos op can
	// force the catalog's resident-engine LRU to evict the main engine
	// under live sessions.
	DatasetN int
	SpareN   int
	// SSEEvery subscribes every k-th live user to the diff stream
	// (default 4; 0 disables subscriptions).
	SSEEvery int
	// Logger receives cluster/serve logs (nil = discard).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Users <= 0 {
		c.Users = 10_000
	}
	if c.Live <= 0 {
		c.Live = 64
	}
	if c.Live > c.Users {
		c.Live = c.Users
	}
	if c.Shards <= 0 {
		c.Shards = 3
	}
	if c.Ticks <= 0 {
		c.Ticks = 120
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.PeakRate == 0 {
		c.PeakRate = 0.9
	}
	if c.MinRate == 0 {
		c.MinRate = 0.01
	}
	if c.SuspectTicks <= 0 {
		c.SuspectTicks = 3
	}
	if c.DownTicks <= 0 {
		c.DownTicks = 6
	}
	if c.DatasetN <= 0 {
		c.DatasetN = 240
	}
	if c.SpareN <= 0 {
		c.SpareN = 96
	}
	if c.SSEEvery < 0 {
		c.SSEEvery = 0
	} else if c.SSEEvery == 0 {
		c.SSEEvery = 4
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 4}))
	}
	return c
}

// vclock is the virtual time source the whole cluster runs on: a fixed
// base instant advanced one second per tick. Atomic because phase-A
// workers and SSE goroutines may read it while the tick loop advances.
type vclock struct {
	base time.Time
	tick atomic.Int64
}

func newVclock() *vclock {
	return &vclock{base: time.Unix(1_700_000_000, 0).UTC()}
}

func (c *vclock) now() time.Time {
	return c.base.Add(time.Duration(c.tick.Load()) * time.Second)
}

// Run executes one load/chaos simulation and returns its Summary.
func Run(cfg Config) (*Summary, error) {
	cfg = cfg.withDefaults()
	var schedule []ChaosOp
	var err error
	switch cfg.Chaos {
	case "":
	case "default":
		schedule, err = ParseSchedule(DefaultSchedule(cfg.Shards, cfg.Ticks))
	default:
		schedule, err = ParseSchedule(cfg.Chaos)
	}
	if err != nil {
		return nil, err
	}
	h, err := newHarness(cfg, schedule)
	if err != nil {
		return nil, err
	}
	defer h.teardown()

	for t := 0; t < cfg.Ticks; t++ {
		h.clock.tick.Store(int64(t))
		h.applyChaos(t)
		h.heartbeats()
		h.gw.SweepMembership()
		h.syncRing()
		h.checkEpoch()
		h.phaseA()
		h.phaseB()
	}
	h.finalAudit()
	return h.summary(), nil
}

// harness holds the cluster under test plus every accumulator the
// Summary is assembled from. All mutation outside phase A happens on
// the tick loop goroutine, in fixed order.
type harness struct {
	cfg      Config
	clock    *vclock
	schedule []ChaosOp
	tmpDir   string

	nodes map[string]*shardNode
	names []string // every shard ever created, sorted
	gwc   *gwClient
	gw    *cluster.Gateway

	// mintNext is the sid handed to GatewayConfig.MintSID; creates are
	// driven sequentially from phase B and chaos ops only.
	mintNext string

	ring    map[string]bool // routable set, synced from gw.Shards()
	ringLst []string
	tick    int

	prevEpoch    uint64
	prevRoster   []string
	prevRoutable []string

	users    []user
	slots    []turn
	streams  []*sseStream
	deadSids []string

	// Accumulators (phase B + chaos + audit; sequential order only).
	virtualActions  uint64
	actionsByOp     map[string]uint64
	virtualCreates  int
	liveCreates     int
	createRetries   int
	unavailable     int
	unavailableLive int
	lost            int
	lostByCause     map[string]int
	badBatches      int
	otherErrors     int

	misrouted       int
	etagBreaks      int
	epochViolations int
	chaosErrors     int
	chaosApplied    []string
	evictRounds     int

	restarts              int
	restartEpochPreserved bool
	restartLost           int

	drainMovedReal   int
	drainMovedLive   int
	virtualRehomed   int
	replayedMut      uint64
	sseStarted       int
	sseFailed        int
	auditedOK        int
	auditFailures    int
	failOpenSessions int
}

const (
	causeFailure  = "failure"
	causeEviction = "eviction"
)

func newHarness(cfg Config, schedule []ChaosOp) (*harness, error) {
	h := &harness{
		cfg:                   cfg,
		clock:                 newVclock(),
		schedule:              schedule,
		nodes:                 make(map[string]*shardNode, cfg.Shards),
		gwc:                   &gwClient{},
		ring:                  make(map[string]bool),
		actionsByOp:           map[string]uint64{"explore": 0, "backtrack": 0, "focusBrush": 0},
		lostByCause:           map[string]int{causeFailure: 0, causeEviction: 0},
		restartEpochPreserved: true,
	}
	if err := h.validateSchedule(); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "loadsim-*")
	if err != nil {
		return nil, err
	}
	h.tmpDir = tmp

	for i := 0; i < cfg.Shards; i++ {
		name := fmt.Sprintf("s%d", i)
		node, err := h.newShard(name)
		if err != nil {
			h.teardown()
			return nil, err
		}
		h.nodes[name] = node
		h.names = append(h.names, name)
	}
	gw, err := h.newGateway()
	if err != nil {
		h.teardown()
		return nil, err
	}
	h.gw = gw
	h.gwc.swap(gw.Routes())
	h.syncRing()
	h.prevEpoch, h.prevRoster, h.prevRoutable = h.topologySnapshot()

	h.initPopulation()
	return h, nil
}

// initPopulation derives every analyst's rng stream and arrival rate.
func (h *harness) initPopulation() {
	cfg := h.cfg
	h.users = make([]user, cfg.Users)
	h.slots = make([]turn, cfg.Users)
	for i := range h.users {
		u := &h.users[i]
		u.idx = i
		u.r = rng.Derive(cfg.Seed, loadsimUserStream|uint64(i))
		rate := cfg.PeakRate / powf(float64(i+1), cfg.ZipfS)
		if rate < cfg.MinRate {
			rate = cfg.MinRate
		}
		u.rate = rate
		u.live = i < cfg.Live
		u.pendingCreate = true
	}
}

// powf is x^y for the rank-frequency curve; one call site keeps the
// float determinism surface auditable (math.Pow is deterministic for
// these finite positive inputs).
func powf(x, y float64) float64 {
	return math.Pow(x, y)
}

// newShard builds one serve.Server shard wrapped in its chaos handler.
func (h *harness) newShard(name string) (*shardNode, error) {
	cfg := h.cfg
	scfg := serve.DefaultConfig()
	scfg.ShardAPI = true
	scfg.SessionTTL = 0 // no TTL sweeper goroutine: recency is virtual-clocked
	scfg.MaxSessions = 0
	scfg.StreamQueue = 4*cfg.Ticks + 64 // never drop a subscriber to resync
	scfg.StreamReplay = 64
	scfg.Logger = cfg.Logger
	scfg.Clock = h.clock.now
	reg := telemetry.NewRegistry()
	scfg.Telemetry = reg

	gcfg := greedy.DefaultConfig()
	gcfg.TimeLimit = 0 // determinism precondition (replay/migration fidelity)

	specs := map[string]serve.DatasetSpec{
		"main":  {Dataset: "dbauthors", N: cfg.DatasetN, Seed: 7},
		"spare": {Dataset: "dbauthors", N: cfg.SpareN, Seed: 11},
	}
	maxResident := 0
	if h.scheduleHas("evict") {
		maxResident = 1
	}
	cat, err := serve.NewCatalog("", specs, "main", gcfg, scfg, cfg.Workers, maxResident)
	if err != nil {
		return nil, err
	}
	srv := serve.NewCatalogServer(cat)
	return &shardNode{
		name:  name,
		srv:   srv,
		chaos: newChaosHandler(srv.Routes()),
		telem: reg,
	}, nil
}

// newGateway assembles (or re-assembles, for the restart op) the
// gateway over every non-drained shard's chaos handler, against the
// durable route table in the harness temp dir.
func (h *harness) newGateway() (*cluster.Gateway, error) {
	var statics []*cluster.Shard
	for _, name := range h.names {
		n := h.nodes[name]
		if n.drained {
			continue
		}
		statics = append(statics, cluster.LocalShard(name, n.chaos))
	}
	return cluster.NewGatewayConfig(cluster.GatewayConfig{
		Logger:       h.cfg.Logger,
		RoutesPath:   filepath.Join(h.tmpDir, "routes.json"),
		SuspectAfter: time.Duration(h.cfg.SuspectTicks) * time.Second,
		DownAfter:    time.Duration(h.cfg.DownTicks) * time.Second,
		Clock:        h.clock.now,
		MintSID:      func() string { return h.mintNext },
		ManualSweep:  true,
		Dial: func(name, _ string) *cluster.Shard {
			if n := h.nodes[name]; n != nil && !n.drained {
				return cluster.LocalShard(name, n.chaos)
			}
			return nil
		},
	}, statics...)
}

// syncRing mirrors the gateway's routable shard set into the harness.
func (h *harness) syncRing() {
	h.ringLst = h.gw.Shards()
	for k := range h.ring {
		delete(h.ring, k)
	}
	for _, n := range h.ringLst {
		h.ring[n] = true
	}
}

func (h *harness) shardAlive(name string) bool {
	n := h.nodes[name]
	return n != nil && !n.killed && !n.partitioned && !n.drained
}

// topologySnapshot reads (epoch, roster names, routable names) from the
// membership directory, both lists sorted.
func (h *harness) topologySnapshot() (uint64, []string, []string) {
	ms := h.gw.Members()
	roster := make([]string, 0, len(ms))
	routable := make([]string, 0, len(ms))
	for _, m := range ms {
		roster = append(roster, m.Name)
		if m.State != "down" {
			routable = append(routable, m.Name)
		}
	}
	return h.gw.Epoch(), roster, routable
}

// checkEpoch enforces the membership contract: the epoch advances on
// every routing-set (or roster) change and ONLY then. Violations in
// either direction are counted; a correct cluster reports zero.
func (h *harness) checkEpoch() {
	epoch, roster, routable := h.topologySnapshot()
	rosterSame := equalStrings(roster, h.prevRoster)
	routableSame := equalStrings(routable, h.prevRoutable)
	if epoch != h.prevEpoch && rosterSame && routableSame {
		h.epochViolations++ // bump without any topology change
	}
	if epoch == h.prevEpoch && (!rosterSame || !routableSame) {
		h.epochViolations++ // topology change without a bump
	}
	h.prevEpoch, h.prevRoster, h.prevRoutable = epoch, roster, routable
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// teardown releases the cluster (idempotent; safe on a half-built
// harness).
func (h *harness) teardown() {
	for _, st := range h.streams {
		st.stop()
	}
	if h.gw != nil {
		h.gw.Close()
	}
	for _, n := range h.nodes {
		if n.srv != nil {
			n.srv.Close()
		}
	}
	if h.tmpDir != "" {
		os.RemoveAll(h.tmpDir)
	}
}

// phaseA draws every analyst's tick in parallel: one due draw per user
// per tick, operand draws and the real HTTP exchange for due live
// users. Workers write only their own slot (h.slots[i]) and their own
// user's rng; all shared state (gateway, shards) is internally locked
// and order-independent. No Summary accumulator moves here.
func (h *harness) phaseA() {
	parallel.ForEach(len(h.users), h.cfg.Workers, func(_, i int) {
		u := &h.users[i]
		tn := &h.slots[i]
		*tn = turn{}
		if u.r.Float64() >= u.rate {
			return
		}
		tn.due = true
		tn.op = u.r.WeightedChoice(opWeights)
		if !u.live || !u.alive || u.paused {
			return
		}
		h.liveAction(u, tn)
	})
}

// phaseB folds the tick's slots into harness state sequentially in
// user-index order: action accounting, live-result bookkeeping (ETag
// continuity, misroute and loss detection), then session (re)creation.
func (h *harness) phaseB() {
	for i := range h.users {
		u := &h.users[i]
		tn := &h.slots[i]
		if tn.due && u.alive && !u.paused {
			owner := u.owner
			switch {
			case h.ring[owner] && h.shardAlive(owner):
				h.virtualActions++
				h.actionsByOp[opNames[tn.op]]++
				if !u.live {
					u.mut += uint64(opCosts[tn.op])
				}
			case h.ring[owner]:
				h.unavailable++ // routable but unreachable: the 502/503 window
			default:
				if !u.live {
					h.loseUser(u, causeFailure) // re-homed by hash, session gone
				}
			}
		}
		if tn.did {
			h.applyLiveResult(u, tn)
		}
		if u.pendingCreate && !u.paused && len(h.ringLst) > 0 {
			h.createUser(u)
		}
	}
}

// loseUser marks a session lost fail-closed: the analyst will recreate
// from scratch next tick. Live sids are remembered so the final audit
// can prove they stay dead.
func (h *harness) loseUser(u *user, cause string) {
	if u.live && u.sid != "" {
		h.deadSids = append(h.deadSids, u.sid)
	}
	u.alive = false
	u.pendingCreate = true
	u.sid, u.owner = "", ""
	u.mut = 0
	u.shown = nil
	u.histLen = 0
	h.lost++
	h.lostByCause[cause]++
}
