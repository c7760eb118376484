// Package membership is the cluster's self-management layer: shards
// announce themselves with periodic heartbeats carrying liveness and
// metadata (address, engine versions, session load), and each gateway
// folds those announcements into a Directory — a durable route table
// stamped with a monotonic topology epoch.
//
// The epoch advances exactly when the *routing set* changes: a member
// joins, leaves, is marked down by failure detection, or recovers.
// Metadata refreshes (a heartbeat updating load numbers) do not bump
// it. Because rendezvous hashing (internal/cluster/hash.go) is a pure
// function of the member-name set, two gateways holding the same epoch
// hold the same routing set and therefore place every session id
// identically — which is what makes the epoch a meaningful version for
// multi-gateway deployments: agree on the epoch, agree on every route.
//
// The Directory persists itself (atomic temp+rename, like the snapshot
// store) on every epoch bump and state transition, and Open reloads it
// on restart — so a restarted gateway resumes routing at the saved
// epoch without asking a single shard anything, replacing the old
// lazy-rebuild behavior.
//
// Failure detection is deliberately simple push-style gossip: a member
// unheard-of for SuspectAfter is suspected (still routable — suspicion
// is a warning, not a verdict), and for DownAfter is marked down and
// leaves the routing set. A down member that heartbeats again recovers.
// Members seeded from a static -shards list are exempt until their
// first heartbeat: a static deployment without announcers must keep
// working exactly as before.
package membership

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// State is a member's liveness as the directory sees it.
type State string

const (
	// StateAlive: heartbeating (or static and never required to).
	StateAlive State = "alive"
	// StateSuspect: unheard-of past SuspectAfter; still routable.
	StateSuspect State = "suspect"
	// StateDown: unheard-of past DownAfter; out of the routing set.
	StateDown State = "down"
)

// Member is what a shard announces about itself: its rendezvous-hash
// identity, dial address, and gossip metadata. The metadata rides the
// roster so every ack paints the whole cluster, but only Name and Addr
// affect routing.
type Member struct {
	Name string `json:"name"`
	Addr string `json:"addr,omitempty"`
	// Static marks members seeded from the -shards flag; they are
	// exempt from failure detection until their first heartbeat.
	Static bool `json:"static,omitempty"`
	// Sessions and Engines are gossip metadata: live session count and
	// per-dataset engine versions at the last heartbeat.
	Sessions int               `json:"sessions,omitempty"`
	Engines  map[string]uint64 `json:"engines,omitempty"`
}

// MemberInfo is one roster row: the member plus its current state.
// Draining marks a member whose sessions are being migrated off: it
// stays in the routing set (its sessions are still served there until
// they move) but takes no new placements.
type MemberInfo struct {
	Member
	State    State `json:"state"`
	Draining bool  `json:"draining,omitempty"`
}

// Ack is a heartbeat response: the gossip piggyback. The announcing
// shard learns the topology epoch and the full roster in the same
// round trip that refreshed its own liveness.
type Ack struct {
	Epoch   uint64       `json:"epoch"`
	Members []MemberInfo `json:"members"`
}

// Event is one failure-detection transition reported by Sweep.
type Event struct {
	Name string
	From State
	To   State
	// Epoch is the directory epoch after the transition.
	Epoch uint64
}

// ErrUnknownMember rejects a heartbeat from a member the directory has
// never admitted: joining is an explicit, warm operation (the gateway
// streams an engine snapshot first), never a side effect of gossip.
var ErrUnknownMember = errors.New("membership: unknown member (join the cluster first)")

// Config assembles a Directory.
type Config struct {
	// Path persists the route table ("" = in-memory only).
	Path string
	// SuspectAfter / DownAfter are the failure-detection horizons
	// (defaults 6s / 20s; DownAfter is clamped to at least
	// SuspectAfter).
	SuspectAfter time.Duration
	DownAfter    time.Duration
	// Logger receives state-transition records (nil = slog.Default()).
	Logger *slog.Logger
	// Clock is injectable for tests (nil = time.Now).
	Clock func() time.Time
}

// record is a member plus the directory's bookkeeping about it.
type record struct {
	m        Member
	state    State
	draining bool
	lastSeen time.Time // zero: static member that never heartbeated
}

// Directory is the gateway-side membership table. All methods are
// safe for concurrent use; the Directory never calls back into its
// caller, so holding caller locks across Directory calls is safe.
type Directory struct {
	path         string
	suspectAfter time.Duration
	downAfter    time.Duration
	log          *slog.Logger
	clock        func() time.Time

	mu      sync.Mutex
	epoch   uint64
	members map[string]*record
}

// tableDoc is the persisted JSON shape.
type tableDoc struct {
	Version int          `json:"version"`
	Epoch   uint64       `json:"epoch"`
	Members []MemberInfo `json:"members"`
}

const tableVersion = 1

// Open creates a Directory, reloading the persisted table when
// cfg.Path names an existing file. Reloaded members keep their state —
// in particular a member marked down stays down (and out of routing)
// until it heartbeats — except that suspicion does not survive a
// restart: a suspect reloads as alive with a fresh grace period, since
// the silence may have been the gateway's own downtime.
func Open(cfg Config) (*Directory, error) {
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 6 * time.Second
	}
	if cfg.DownAfter < cfg.SuspectAfter {
		if cfg.DownAfter > 0 {
			cfg.DownAfter = cfg.SuspectAfter
		} else {
			cfg.DownAfter = 20 * time.Second
		}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	d := &Directory{
		path:         cfg.Path,
		suspectAfter: cfg.SuspectAfter,
		downAfter:    cfg.DownAfter,
		log:          cfg.Logger,
		clock:        cfg.Clock,
		members:      make(map[string]*record),
	}
	if cfg.Path == "" {
		return d, nil
	}
	raw, err := os.ReadFile(cfg.Path)
	if errors.Is(err, os.ErrNotExist) {
		return d, nil
	}
	if err != nil {
		return nil, fmt.Errorf("membership: reading route table: %w", err)
	}
	var doc tableDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("membership: parsing route table %s: %w", cfg.Path, err)
	}
	if doc.Version != tableVersion {
		return nil, fmt.Errorf("membership: route table %s has version %d, want %d", cfg.Path, doc.Version, tableVersion)
	}
	now := d.clock()
	for _, mi := range doc.Members {
		if mi.Name == "" {
			return nil, fmt.Errorf("membership: route table %s has a member without a name", cfg.Path)
		}
		st := mi.State
		if st != StateDown {
			st = StateAlive
		}
		last := now
		if mi.Static {
			last = time.Time{} // static grace: exempt until first heartbeat
		}
		d.members[mi.Name] = &record{m: mi.Member, state: st, draining: mi.Draining, lastSeen: last}
	}
	d.epoch = doc.Epoch
	return d, nil
}

// Epoch reports the current topology epoch. Zero means an empty,
// never-seeded directory.
func (d *Directory) Epoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch
}

// Known reports whether name has been admitted (in any state).
func (d *Directory) Known(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.members[name]
	return ok
}

// Members snapshots the roster, sorted by name.
func (d *Directory) Members() []MemberInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rosterLocked()
}

func (d *Directory) rosterLocked() []MemberInfo {
	out := make([]MemberInfo, 0, len(d.members))
	for _, rec := range d.members {
		out = append(out, MemberInfo{Member: rec.m, State: rec.state, Draining: rec.draining})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RoutableSet maps every member in the routing set — every member not
// marked down — to whether it takes new placements (false while it
// drains). Suspects stay routable: suspicion is an early warning, and
// evicting on it would let one late heartbeat thrash the epoch (and
// migrate sessions) back and forth.
func (d *Directory) RoutableSet() map[string]bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]bool, len(d.members))
	for name, rec := range d.members {
		if rec.state != StateDown {
			out[name] = !rec.draining
		}
	}
	return out
}

// SetDraining marks or clears a member's draining flag, reporting
// whether the member is known. The flag persists with the roster, so a
// gateway restarted mid-drain still places nothing on the member, but
// it bumps no epoch: the routing set is unchanged until the drain
// completes and Remove drops the member.
func (d *Directory) SetDraining(name string, on bool) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec, ok := d.members[name]
	if !ok {
		return false
	}
	if rec.draining != on {
		rec.draining = on
		d.persistLocked()
	}
	return true
}

// StateCounts reports how many members sit in each state — the
// vexus_cluster_members{state} gauge.
func (d *Directory) StateCounts() map[string]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := map[string]float64{string(StateAlive): 0, string(StateSuspect): 0, string(StateDown): 0}
	for _, rec := range d.members {
		out[string(rec.state)]++
	}
	return out
}

// SeedStatic admits the given members as static entries (exempt from
// failure detection until their first heartbeat). Already-known names
// keep their record — a restart re-seeding the same -shards list must
// not disturb the reloaded table — but gain the static mark. One epoch
// bump covers however many members the seed actually added, so a fresh
// N-shard gateway starts at epoch 1, not N.
func (d *Directory) SeedStatic(members []Member) {
	d.mu.Lock()
	defer d.mu.Unlock()
	added := false
	for _, m := range members {
		if rec, ok := d.members[m.Name]; ok {
			rec.m.Static = true
			if m.Addr != "" {
				rec.m.Addr = m.Addr
			}
			continue
		}
		m.Static = true
		d.members[m.Name] = &record{m: m, state: StateAlive}
		added = true
	}
	if added {
		d.bumpLocked("seed")
	}
}

// Join admits a new member (the warm-join path: the caller has already
// streamed it an engine snapshot). Duplicate names are an error — the
// name is the rendezvous identity.
func (d *Directory) Join(m Member) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.members[m.Name]; dup {
		return fmt.Errorf("membership: member %q already present", m.Name)
	}
	d.members[m.Name] = &record{m: m, state: StateAlive, lastSeen: d.clock()}
	d.bumpLocked("join " + m.Name)
	return nil
}

// Remove drops a member (drain completed, or operator acknowledgment
// of a dead shard). Reports whether the member was known.
func (d *Directory) Remove(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.members[name]; !ok {
		return false
	}
	delete(d.members, name)
	d.bumpLocked("remove " + name)
	return true
}

// Heartbeat processes one announcement: refresh liveness and metadata,
// and return the gossip ack. recovered reports a down→alive
// transition, which re-enters the member into the routing set (and
// bumps the epoch). Unknown members are rejected with
// ErrUnknownMember — admission is Join's job.
func (d *Directory) Heartbeat(m Member) (Ack, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec, ok := d.members[m.Name]
	if !ok {
		return Ack{}, false, fmt.Errorf("%w: %q", ErrUnknownMember, m.Name)
	}
	rec.lastSeen = d.clock()
	if m.Addr != "" {
		rec.m.Addr = m.Addr
	}
	rec.m.Sessions = m.Sessions
	rec.m.Engines = m.Engines
	recovered := rec.state == StateDown
	if rec.state != StateAlive {
		from := rec.state
		rec.state = StateAlive
		if recovered {
			d.bumpLocked("recover " + m.Name)
		} else {
			d.persistLocked()
		}
		d.log.Info("membership: member "+string(from)+" -> alive", "member", m.Name, "epoch", d.epoch)
	}
	return Ack{Epoch: d.epoch, Members: d.rosterLocked()}, recovered, nil
}

// Sweep runs failure detection against the clock and returns the
// transitions it performed (alive→suspect, suspect→down), in member
// name order. Static members that have never heartbeated are exempt.
// A member marked down leaves the routing set and the epoch bumps —
// the caller is expected to fail its routes closed (internal/cluster
// drops them, so the sessions read as expired, never as misrouted).
func (d *Directory) Sweep() []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clock()
	var events []Event
	names := make([]string, 0, len(d.members))
	for name := range d.members {
		names = append(names, name)
	}
	sort.Strings(names)
	changed := false
	for _, name := range names {
		rec := d.members[name]
		if rec.lastSeen.IsZero() {
			continue // static, never heartbeated
		}
		silent := now.Sub(rec.lastSeen)
		switch {
		case silent >= d.downAfter && rec.state != StateDown:
			from := rec.state
			rec.state = StateDown
			d.epoch++
			changed = true
			events = append(events, Event{Name: name, From: from, To: StateDown, Epoch: d.epoch})
			d.log.Warn("membership: member down (heartbeats stopped)", "member", name, "silent", silent.Round(time.Millisecond), "epoch", d.epoch)
		case silent >= d.suspectAfter && rec.state == StateAlive:
			rec.state = StateSuspect
			changed = true
			events = append(events, Event{Name: name, From: StateAlive, To: StateSuspect, Epoch: d.epoch})
			d.log.Info("membership: member suspect", "member", name, "silent", silent.Round(time.Millisecond))
		}
	}
	if changed {
		d.persistLocked()
	}
	return events
}

// Down lists members currently marked down, sorted — what the
// gateway's readyz names until an operator drains or removes them.
func (d *Directory) Down() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for name, rec := range d.members {
		if rec.state == StateDown {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// bumpLocked advances the epoch for a routing-set change and persists.
func (d *Directory) bumpLocked(why string) {
	d.epoch++
	d.log.Debug("membership: epoch advanced", "epoch", d.epoch, "change", why)
	d.persistLocked()
}

// persistLocked writes the table atomically (temp + rename, the same
// discipline as store.SaveFile). Persistence failures are logged, not
// fatal: the in-memory table is still correct, and the next transition
// retries.
func (d *Directory) persistLocked() {
	if d.path == "" {
		return
	}
	doc := tableDoc{Version: tableVersion, Epoch: d.epoch, Members: d.rosterLocked()}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		d.log.Warn("membership: encoding route table", "err", err)
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(d.path), ".routes-*.tmp")
	if err != nil {
		d.log.Warn("membership: persisting route table", "err", err)
		return
	}
	_, werr := tmp.Write(append(raw, '\n'))
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), d.path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		d.log.Warn("membership: persisting route table", "path", d.path, "err", werr)
	}
}
