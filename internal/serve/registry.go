package serve

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/greedy"
)

// errServerFull means the registry is at capacity and every session is
// recently active, so evicting any of them would cut off a live
// explorer. Callers should surface 503.
var errServerFull = errors.New("session capacity reached and all sessions are active")

// errDuplicateSession means a caller-chosen session id (the cluster
// create/import path) is already live here. Callers surface 409.
var errDuplicateSession = errors.New("session id already exists")

// errVersionGone means a migration import asked for an engine version
// this registry no longer retains (restarted since, or more than
// engineHistoryCap ingests ago). Callers surface 409 — the migration
// fails closed and the source keeps serving.
var errVersionGone = errors.New("engine version no longer resident")

// engineHistoryCap bounds how many superseded engine versions a
// registry retains after ingests. Sessions are pinned to the version
// they started on, and a migrating session must find its version on
// the new owner — every shard ingests the same batches, so retaining
// recent generations makes drain-after-ingest work without re-aiming
// anyone. Engines are immutable and shared, so the cost is memory for
// generations nobody may hold anymore; the cap keeps a long-lived
// server from accreting every generation since start.
const engineHistoryCap = 8

// defaultMinEvictIdle is how long a session must have been idle before
// the capacity evictor may take it: without this floor, a burst of
// anonymous session creates would evict every legitimate explorer.
const defaultMinEvictIdle = 10 * time.Second

// clientSession is one explorer's isolated state — an action.Session
// (the core session, the open STATS focus view, the mutation counter
// and the action log), guarded by its own mutex so concurrent requests
// to the *same* session serialize while requests to different sessions
// run fully in parallel — the engine underneath is immutable after
// Build and shared by all sessions of the same dataset. Every
// mutation goes through action.Apply, which advances the mutation
// counter the session ETag derives from.
type clientSession struct {
	id      string
	dataset string       // catalog name of the dataset this session explores
	eng     *core.Engine // the engine the session runs over

	// hub fans the session's diff stream out to SSE subscribers and
	// holds the Last-Event-ID replay ring. It has its own lock (order:
	// mu before hub.mu); a nonzero subscriber count pins the session
	// against TTL/LRU eviction — an idle-watching analyst mutates
	// nothing, but their stream is live use.
	hub *streamHub

	mu  sync.Mutex
	act *action.Session
}

// etag renders the current validator from the action layer's mutation
// counter; the caller must hold mu. Diff.Mutations carries the same
// number, so a client consuming batch diffs always knows the validator
// its cached state corresponds to.
func (cs *clientSession) etag() string {
	return `"` + cs.id + "." + strconv.FormatUint(cs.act.Mutations, 10) + `"`
}

// registry owns the live sessions: creation, lookup-with-touch, LRU
// capacity eviction, and TTL sweeping of idle sessions. Its mutex
// covers only the map and the recency bookkeeping — never the
// per-session work — so the registry is a few map operations on every
// request, not a global serialization point.
type registry struct {
	// eng is the engine *new* sessions start on — the dataset's current
	// version. Guarded by mu: an ingest swaps it (swapEngine) while
	// creates read it. Existing sessions keep the pointer they were
	// created with (clientSession.eng); engine versions are immutable,
	// so a session pinned to an older version keeps serving it
	// unchanged until the session ends.
	eng *core.Engine
	// history retains superseded engine versions, keyed by Version():
	// swapEngine records the outgoing engine here (bounded by
	// engineHistoryCap, oldest first out) so a migration import can pin
	// its replayed session to the exact generation it was exploring on
	// the source shard. Guarded by mu; nil until the first swap.
	history map[uint64]*core.Engine
	cfg     greedy.Config
	// dataset is the catalog name stamped onto every session this
	// registry creates ("default" in single-engine deployments; ""
	// only when a registry is constructed directly, as tests do).
	dataset string

	// streamQueue / streamReplay size each session's SSE subscriber
	// queues and replay ring (0 = package defaults); the catalog wires
	// them from Config.
	streamQueue  int
	streamReplay int

	// met is the catalog's telemetry bundle; nil when a registry is
	// constructed directly (tests), so every touch is guarded.
	met *serverMetrics

	mu           sync.Mutex
	byID         map[string]*sessionEntry
	ttl          time.Duration
	max          int
	minEvictIdle time.Duration
	now          func() time.Time // injectable for sweeper/eviction tests
	stopOnce     sync.Once
	stop         chan struct{}
}

// sessionEntry pairs a session with its recency stamp (guarded by
// registry.mu, not the session mutex, so touching is cheap).
type sessionEntry struct {
	cs       *clientSession
	lastUsed time.Time
}

// newRegistry builds a session registry; max <= 0 means unlimited
// sessions (mirroring ttl <= 0 = never expire).
func newRegistry(eng *core.Engine, cfg greedy.Config, ttl time.Duration, max int) *registry {
	return &registry{
		eng:          eng,
		cfg:          cfg,
		byID:         make(map[string]*sessionEntry),
		ttl:          ttl,
		max:          max,
		minEvictIdle: defaultMinEvictIdle,
		now:          time.Now,
		stop:         make(chan struct{}),
	}
}

func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("vexus-server: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// NewSessionID mints a fresh 128-bit hex session id. Exported for the
// cluster gateway, which draws ids itself so it can place a session on
// the shard its rendezvous hash owns before the session exists.
func NewSessionID() string { return newSessionID() }

// sessions snapshots the live sessions, for the shard residency
// listing; the slice is a copy, safe to use after the lock drops.
func (r *registry) sessions() []*clientSession {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*clientSession, 0, len(r.byID))
	for _, e := range r.byID {
		out = append(out, e.cs)
	}
	return out
}

// create starts a fresh exploration session. At capacity (max > 0)
// the least-recently-used session is evicted first — an interactive
// system prefers serving a new explorer over preserving an abandoned
// tab — but only if it has been idle at least minEvictIdle: when every
// session is actively in use, create fails with errServerFull instead
// of letting a creation burst evict live explorers. The capacity check
// runs before session construction, so a rejected burst costs a map
// lookup, not an engine walk.
func (r *registry) create() (*clientSession, error) {
	return r.createWithID(newSessionID())
}

// createWithID is create with a caller-chosen session id — the cluster
// path, where the gateway picks the id so that rendezvous hashing of
// the id routes every later request to this shard (and migration can
// re-create the session under the same id on a new owner). A live
// duplicate fails with errDuplicateSession; ids never recycle through
// this path because the gateway draws them from the same 128-bit
// space as newSessionID.
func (r *registry) createWithID(id string) (*clientSession, error) {
	return r.createWithIDAt(id, 0)
}

// createWithIDAt is createWithID pinned to a specific engine version —
// the migration import path, where the replayed session must keep
// exploring the generation it started on, whatever this shard has
// ingested since. Version 0 (and the current version) selects the
// current engine; any other version resolves through the retained
// history and fails with errVersionGone when it is no longer there.
func (r *registry) createWithIDAt(id string, version uint64) (*clientSession, error) {
	cs := &clientSession{
		id:      id,
		dataset: r.dataset,
		hub:     newStreamHub(r.streamQueue, r.streamReplay),
	}
	if m := r.met; m != nil {
		// Hand the hub its instruments directly — nil-safe, so the hub
		// never branches on whether telemetry is on.
		cs.hub.subsGauge = m.streamSubscribers
		cs.hub.drops = m.streamDrops
	}
	cs.mu.Lock() // released only once the session is constructed
	r.mu.Lock()
	if _, exists := r.byID[cs.id]; exists {
		r.mu.Unlock()
		return nil, errDuplicateSession
	}
	for r.max > 0 && len(r.byID) >= r.max {
		if !r.evictOldestLocked() {
			r.mu.Unlock()
			return nil, errServerFull
		}
	}
	// The engine read happens under r.mu — a concurrent ingest may be
	// swapping it — and is captured once: the session is pinned to
	// whichever version was current at creation (or, for a migration
	// import, to the exact version the export named).
	cs.eng = r.eng
	if version != 0 && version != r.eng.Version() {
		var ok bool
		if cs.eng, ok = r.history[version]; !ok {
			r.mu.Unlock()
			return nil, fmt.Errorf("%w: version %d (current %d)", errVersionGone, version, r.eng.Version())
		}
	}
	r.byID[cs.id] = &sessionEntry{cs: cs, lastUsed: r.now()}
	r.mu.Unlock()
	// Construct outside the registry lock: the slot is reserved, and
	// anything that resolves the id meanwhile blocks on cs.mu until
	// the session exists. The initial display is action #1, so a fresh
	// session's ETag is "<sid>.1", exactly like every later mutation.
	// The fan-out hook attaches before the Start so the replay ring is
	// contiguous from event id 1.
	cs.act = action.New(cs.eng, r.cfg)
	cs.act.OnDiff = cs.hub.publish
	if m := r.met; m != nil {
		if hist := m.actionSeconds; hist != nil {
			cs.act.Observe = func(op action.Kind, d time.Duration) {
				hist.With(string(op)).Observe(d.Seconds())
			}
		}
		m.sessionsCreated.Inc()
	}
	_ = action.ApplyQuiet(cs.act, action.Action{Op: action.Start}) // Start cannot fail
	cs.mu.Unlock()
	return cs, nil
}

// evictOldestLocked removes the least-recently-used entry if it has
// been idle at least minEvictIdle, reporting whether it evicted; the
// caller holds r.mu. Sessions with live SSE subscribers are pinned —
// a watching analyst never posts an action, so lastUsed goes stale,
// but reaping under their stream would cut off a live explorer. A
// linear scan is fine: eviction runs only at capacity or from the
// sweeper, never on the request fast path. Ties on lastUsed break to
// the smallest sid: many sessions share one stamp under a coarse (or
// injected virtual) clock, and map iteration order must not pick the
// victim.
func (r *registry) evictOldestLocked() bool {
	var oldest string
	var oldestAt time.Time
	for id, e := range r.byID {
		if e.cs.hub.subscribers() > 0 {
			continue
		}
		if oldest == "" || e.lastUsed.Before(oldestAt) || (e.lastUsed.Equal(oldestAt) && id < oldest) {
			oldest, oldestAt = id, e.lastUsed
		}
	}
	if oldest == "" || r.now().Sub(oldestAt) < r.minEvictIdle {
		return false
	}
	r.byID[oldest].cs.hub.close(reasonDeleted)
	delete(r.byID, oldest)
	if m := r.met; m != nil {
		m.sessionsEvicted.Inc()
	}
	return true
}

// swapEngine points future session creates at a new engine version.
// Live sessions are untouched — they stay pinned to the version they
// started on (group ids and term ids are not stable across versions,
// so carrying a session's state over would silently re-aim it at
// different groups; targeted notice events tell affected clients to
// start over instead). The outgoing engine is retained in the version
// history so migrating sessions pinned to it can still land here.
func (r *registry) swapEngine(eng *core.Engine) {
	r.mu.Lock()
	if r.history == nil {
		r.history = make(map[uint64]*core.Engine)
	}
	r.history[r.eng.Version()] = r.eng
	for len(r.history) > engineHistoryCap {
		oldest, first := uint64(0), true
		for v := range r.history {
			if first || v < oldest {
				oldest, first = v, false
			}
		}
		delete(r.history, oldest)
	}
	r.eng = eng
	r.mu.Unlock()
}

// get returns the session with the given id, refreshing its recency.
func (r *registry) get(id string) (*clientSession, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byID[id]
	if !ok {
		return nil, false
	}
	e.lastUsed = r.now()
	return e.cs, true
}

// remove deletes a session; unknown ids are a no-op. A handler already
// holding the session's mutex simply finishes its request against the
// now-unreachable session. Attached streams receive a terminal
// `event: closed` carrying reason — "migrated" tells clients to
// reconnect (their session lives on another shard), anything else is
// final.
func (r *registry) remove(id, reason string) {
	r.mu.Lock()
	e, ok := r.byID[id]
	delete(r.byID, id)
	r.mu.Unlock()
	if ok {
		e.cs.hub.close(reason)
	}
}

// count returns the number of live sessions.
func (r *registry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}

// sweep evicts every session idle longer than the TTL and returns how
// many were dropped. Sessions with live SSE subscribers are pinned,
// whatever their idle age: delivered events are their activity. ttl <=
// 0 disables sweeping.
func (r *registry) sweep() int {
	if r.ttl <= 0 {
		return 0
	}
	cutoff := r.now().Add(-r.ttl)
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for id, e := range r.byID {
		if e.lastUsed.Before(cutoff) && e.cs.hub.subscribers() == 0 {
			e.cs.hub.close(reasonDeleted)
			delete(r.byID, id)
			n++
		}
	}
	if n > 0 {
		if m := r.met; m != nil {
			m.sessionsExpired.Add(uint64(n))
		}
	}
	return n
}

// startSweeper runs sweep on the given interval until close.
func (r *registry) startSweeper(interval time.Duration) {
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.sweep()
			case <-r.stop:
				return
			}
		}
	}()
}

// closeStreams sends every session's attached streams a terminal
// `event: closed` with the given reason — the teardown signal for
// catalog engine eviction and server shutdown, so a streaming client
// sees why its stream ended instead of a bare hangup.
func (r *registry) closeStreams(reason string) {
	for _, cs := range r.sessions() {
		cs.hub.close(reason)
	}
}

// close stops the sweeper goroutine and tears down any streams still
// attached (idempotent).
func (r *registry) close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.closeStreams(reasonClosing)
}
