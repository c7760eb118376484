package membership

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for failure-detection tests.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func newTestDir(t *testing.T, path string, clk *fakeClock) *Directory {
	t.Helper()
	d, err := Open(Config{
		Path:         path,
		SuspectAfter: 10 * time.Second,
		DownAfter:    30 * time.Second,
		Clock:        clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEpochAdvancesOnlyOnRoutingChanges(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	d := newTestDir(t, "", clk)

	if d.Epoch() != 0 {
		t.Fatalf("fresh directory epoch = %d", d.Epoch())
	}
	// Seeding N static members is one routing change, not N.
	d.SeedStatic([]Member{{Name: "a", Addr: "a:1"}, {Name: "b", Addr: "b:1"}})
	if d.Epoch() != 1 {
		t.Fatalf("epoch after seed = %d, want 1", d.Epoch())
	}
	// Re-seeding the same list changes nothing.
	d.SeedStatic([]Member{{Name: "a", Addr: "a:1"}, {Name: "b", Addr: "b:1"}})
	if d.Epoch() != 1 {
		t.Fatalf("epoch after idempotent re-seed = %d, want 1", d.Epoch())
	}

	// Heartbeats refresh metadata without moving the epoch.
	if _, _, err := d.Heartbeat(Member{Name: "a", Sessions: 7}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Heartbeat(Member{Name: "a", Sessions: 9}); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != 1 {
		t.Fatalf("epoch after metadata heartbeats = %d, want 1", d.Epoch())
	}

	// Join bumps; duplicate join is rejected without bumping.
	if err := d.Join(Member{Name: "c", Addr: "c:1"}); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != 2 {
		t.Fatalf("epoch after join = %d, want 2", d.Epoch())
	}
	if err := d.Join(Member{Name: "c"}); err == nil {
		t.Fatal("duplicate join should fail")
	}
	if d.Epoch() != 2 {
		t.Fatalf("epoch after rejected join = %d, want 2", d.Epoch())
	}

	// Remove bumps; removing an unknown member does not.
	if !d.Remove("c") {
		t.Fatal("remove of known member reported unknown")
	}
	if d.Remove("c") {
		t.Fatal("second remove reported known")
	}
	if d.Epoch() != 3 {
		t.Fatalf("epoch after remove = %d, want 3", d.Epoch())
	}
}

func TestSweepTransitionsAndRecovery(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	d := newTestDir(t, "", clk)
	d.SeedStatic([]Member{{Name: "a", Addr: "a:1"}})
	if err := d.Join(Member{Name: "b", Addr: "b:1"}); err != nil {
		t.Fatal(err)
	}
	base := d.Epoch()

	// b heartbeats once, then goes silent. a is static and never
	// heartbeated: exempt forever.
	if _, _, err := d.Heartbeat(Member{Name: "b"}); err != nil {
		t.Fatal(err)
	}

	clk.Advance(15 * time.Second) // past suspect, short of down
	evs := d.Sweep()
	if len(evs) != 1 || evs[0].Name != "b" || evs[0].To != StateSuspect {
		t.Fatalf("sweep events = %+v, want b -> suspect", evs)
	}
	// Suspicion is a warning: still routable, epoch unchanged.
	if d.Epoch() != base {
		t.Fatalf("suspect transition moved the epoch: %d -> %d", base, d.Epoch())
	}
	if !d.RoutableSet()["b"] {
		t.Fatal("suspect member left the routing set")
	}

	clk.Advance(20 * time.Second) // now past down
	evs = d.Sweep()
	if len(evs) != 1 || evs[0].To != StateDown {
		t.Fatalf("sweep events = %+v, want b -> down", evs)
	}
	if d.Epoch() != base+1 {
		t.Fatalf("down transition epoch = %d, want %d", d.Epoch(), base+1)
	}
	if d.RoutableSet()["b"] {
		t.Fatal("down member still in the routing set")
	}
	if got := d.Down(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Down() = %v", got)
	}
	// Static a never transitioned.
	if d.StateCounts()[string(StateAlive)] != 1 {
		t.Fatalf("counts = %v, want one alive", d.StateCounts())
	}

	// Recovery heartbeat re-enters the routing set and bumps the epoch.
	_, recovered, err := d.Heartbeat(Member{Name: "b"})
	if err != nil || !recovered {
		t.Fatalf("recovery heartbeat: recovered=%v err=%v", recovered, err)
	}
	if d.Epoch() != base+2 {
		t.Fatalf("recovery epoch = %d, want %d", d.Epoch(), base+2)
	}
	if !d.RoutableSet()["b"] {
		t.Fatal("recovered member not routable")
	}

	// A static member that HAS heartbeated is subject to detection.
	if _, _, err := d.Heartbeat(Member{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(31 * time.Second)
	downed := map[string]bool{}
	for _, ev := range d.Sweep() {
		if ev.To == StateDown {
			downed[ev.Name] = true
		}
	}
	if !downed["a"] {
		t.Fatal("static member that heartbeated once was not failure-detected")
	}
}

func TestHeartbeatUnknownMemberRejected(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	d := newTestDir(t, "", clk)
	if _, _, err := d.Heartbeat(Member{Name: "ghost"}); err == nil {
		t.Fatal("heartbeat from unadmitted member should fail")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "routes.json")
	clk := &fakeClock{now: time.Unix(1000, 0)}

	d := newTestDir(t, path, clk)
	d.SeedStatic([]Member{{Name: "a", Addr: "a:1"}})
	if err := d.Join(Member{Name: "b", Addr: "b:1"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Join(Member{Name: "c", Addr: "c:1"}); err != nil {
		t.Fatal(err)
	}
	// Drive b down and c suspect, then reload.
	if _, _, err := d.Heartbeat(Member{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(31 * time.Second)
	d.Sweep()
	epoch := d.Epoch()

	d2 := newTestDir(t, path, clk)
	if d2.Epoch() != epoch {
		t.Fatalf("reloaded epoch = %d, want %d", d2.Epoch(), epoch)
	}
	// Down survives the restart (fail closed); the roster is intact.
	if d2.RoutableSet()["b"] {
		t.Fatal("down member reloaded as routable")
	}
	mis := d2.Members()
	if len(mis) != 3 {
		t.Fatalf("reloaded roster: %+v", mis)
	}
	for _, mi := range mis {
		if mi.Name == "a" && !mi.Static {
			t.Fatal("static mark lost across reload")
		}
		if mi.Name == "b" && mi.State != StateDown {
			t.Fatalf("member b reloaded as %s, want down", mi.State)
		}
	}
	// The reloaded-as-alive members get a grace period: an immediate
	// sweep must not mark them down just because the table is old.
	if evs := d2.Sweep(); len(evs) != 0 {
		t.Fatalf("immediate post-reload sweep produced %+v", evs)
	}

	// Corrupt table: refuse to start rather than route from garbage.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Path: path}); err == nil {
		t.Fatal("corrupt route table should fail Open")
	}
}

func TestAuth(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })

	// Empty secret: gate is a pass-through.
	h := Require("", ok)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/internal/cluster/sessions", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("no-secret gate: %d", rec.Code)
	}

	h = Require("s3cret", ok)
	for _, tc := range []struct {
		name, got string
		want      int
	}{
		{"missing", "", http.StatusUnauthorized},
		{"wrong", "nope", http.StatusUnauthorized},
		{"right", "s3cret", http.StatusOK},
	} {
		req := httptest.NewRequest(http.MethodGet, "/internal/cluster/sessions", nil)
		if tc.got != "" {
			req.Header.Set(SecretHeader, tc.got)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Fatalf("%s secret: status %d, want %d", tc.name, rec.Code, tc.want)
		}
	}
}

// TestDrainingFlag: draining keeps a member routable but out of new
// placements, moves no epoch, and survives a reload.
func TestDrainingFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "routes.json")
	clk := &fakeClock{now: time.Unix(1000, 0)}
	d := newTestDir(t, path, clk)
	d.SeedStatic([]Member{{Name: "a"}, {Name: "b"}})
	epoch := d.Epoch()

	if !d.SetDraining("b", true) {
		t.Fatal("SetDraining on a known member reported unknown")
	}
	if d.SetDraining("ghost", true) {
		t.Fatal("SetDraining on an unknown member reported known")
	}
	if d.Epoch() != epoch {
		t.Fatalf("draining moved the epoch: %d -> %d", epoch, d.Epoch())
	}
	set := d.RoutableSet()
	if placeable, ok := set["b"]; !ok || placeable {
		t.Fatalf("draining member in routing set %v, want routable but not placeable", set)
	}
	if !set["a"] {
		t.Fatalf("non-draining member not placeable: %v", set)
	}

	d2 := newTestDir(t, path, clk)
	if placeable, ok := d2.RoutableSet()["b"]; !ok || placeable {
		t.Fatal("draining flag lost across reload")
	}
	d2.SetDraining("b", false)
	if !d2.RoutableSet()["b"] || d2.Epoch() != epoch {
		t.Fatalf("cleared drain: placeable %v epoch %d, want true/%d", d2.RoutableSet()["b"], d2.Epoch(), epoch)
	}
}
