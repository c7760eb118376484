package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/greedy"
)

// ---------------------------------------------------------------------------
// Fixture: one small engine shared by every test (immutable after Build).

var (
	engOnce sync.Once
	engFix  *core.Engine
	engErr  error
)

func testEngine(t testing.TB) *core.Engine {
	t.Helper()
	engOnce.Do(func() {
		data, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 400, Seed: 7})
		if err != nil {
			engErr = err
			return
		}
		cfg := core.DefaultPipelineConfig()
		cfg.Encode = datagen.DBAuthorsEncodeOptions()
		cfg.MinSupportFrac = 0.02
		engFix, engErr = core.Build(data, cfg)
	})
	if engErr != nil {
		t.Fatal(engErr)
	}
	return engFix
}

// fastGreedy keeps per-request optimization time negligible in tests.
func fastGreedy() greedy.Config {
	cfg := greedy.DefaultConfig()
	cfg.TimeLimit = 2 * time.Millisecond
	return cfg
}

func testServer(t testing.TB, scfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(testEngine(t), fastGreedy(), scfg)
	ts := httptest.NewServer(s.Routes())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// post sends a form POST and decodes the JSON state on 200 or 201.
func post(t testing.TB, ts *httptest.Server, path string, form url.Values) (stateDTO, *http.Response) {
	t.Helper()
	res, err := http.PostForm(ts.URL+path, form)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var st stateDTO
	if res.StatusCode == http.StatusOK || res.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
			t.Fatalf("POST %s: bad JSON: %v", path, err)
		}
	} else {
		_, _ = io.Copy(io.Discard, res.Body)
	}
	return st, res
}

func getState(t testing.TB, ts *httptest.Server, sid string) (stateDTO, *http.Response) {
	t.Helper()
	res, err := http.Get(ts.URL + "/api/v1/sessions/" + sid + "/state")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var st stateDTO
	if res.StatusCode == http.StatusOK {
		if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	} else {
		_, _ = io.Copy(io.Discard, res.Body)
	}
	return st, res
}

// act applies actions through the v1 batch endpoint (?full=1) and
// returns the resulting full state — the test-side replacement for
// the removed legacy one-action endpoints.
func act(t testing.TB, ts *httptest.Server, sid string, acts ...action.Action) (stateDTO, *http.Response) {
	t.Helper()
	st, res := actErr(ts, sid, acts...)
	if res == nil {
		t.Fatalf("act %v: request failed", acts)
	}
	return st, res
}

// actErr is the non-fatal variant usable inside stress goroutines.
func actErr(ts *httptest.Server, sid string, acts ...action.Action) (stateDTO, *http.Response) {
	var st stateDTO
	raw, err := json.Marshal(acts)
	if err != nil {
		return st, nil
	}
	res, err := http.Post(ts.URL+"/api/v1/sessions/"+sid+"/actions?full=1",
		"application/json", bytes.NewReader(raw))
	if err != nil {
		return st, nil
	}
	defer res.Body.Close()
	if res.StatusCode == http.StatusOK {
		if json.NewDecoder(res.Body).Decode(&st) != nil {
			return st, nil
		}
	} else {
		_, _ = io.Copy(io.Discard, res.Body)
	}
	return st, res
}

func createSession(t testing.TB, ts *httptest.Server) stateDTO {
	t.Helper()
	st, res := post(t, ts, "/api/v1/sessions", nil)
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("session create: status %d", res.StatusCode)
	}
	if st.Session == "" {
		t.Fatal("session create returned empty id")
	}
	if len(st.Shown) == 0 {
		t.Fatal("session create returned empty initial display")
	}
	return st
}

// ---------------------------------------------------------------------------
// Round-trips.

func TestSessionCreateAndState(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st := createSession(t, ts)
	if st.Focal != -1 {
		t.Fatalf("fresh session focal = %d, want -1", st.Focal)
	}
	got, res := getState(t, ts, st.Session)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("state: status %d", res.StatusCode)
	}
	if got.Session != st.Session || len(got.Shown) != len(st.Shown) {
		t.Fatalf("state mismatch after create: %+v vs %+v", got.Session, st.Session)
	}
}

func TestExploreBacktrackRoundTrip(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st := createSession(t, ts)
	sid := st.Session

	target := st.Shown[0].ID
	after, res := act(t, ts, sid, action.Action{Op: action.Explore, Group: target})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("explore: status %d", res.StatusCode)
	}
	if after.Focal != target {
		t.Fatalf("explore focal = %d, want %d", after.Focal, target)
	}
	if len(after.History) != 2 {
		t.Fatalf("history after explore = %d steps, want 2", len(after.History))
	}
	if len(after.Context) == 0 {
		t.Fatal("explore left the feedback context empty")
	}

	back, res := act(t, ts, sid, action.Action{Op: action.Backtrack, Step: 0})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("backtrack: status %d", res.StatusCode)
	}
	if back.Focal != -1 || len(back.History) != 1 {
		t.Fatalf("backtrack state: focal %d history %d, want -1/1", back.Focal, len(back.History))
	}
	if len(back.Context) != 0 {
		t.Fatal("backtrack did not rewind the feedback vector")
	}
}

func TestBookmarkRoundTrip(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st := createSession(t, ts)
	sid := st.Session

	after, res := act(t, ts, sid, action.Action{Op: action.BookmarkGroup, Group: st.Shown[0].ID})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("bookmark group: status %d", res.StatusCode)
	}
	if len(after.Memo.Groups) != 1 {
		t.Fatalf("memo groups = %v, want 1 entry", after.Memo.Groups)
	}

	userID := testEngine(t).Data.Users[0].ID
	after, res = act(t, ts, sid, action.Action{Op: action.BookmarkUser, User: userID})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("bookmark user: status %d", res.StatusCode)
	}
	if len(after.Memo.Users) != 1 || after.Memo.Users[0] != userID {
		t.Fatalf("memo users = %v, want [%s]", after.Memo.Users, userID)
	}
}

func TestFocusAndSVGEndpoints(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st := createSession(t, ts)
	sid := st.Session

	after, res := act(t, ts, sid, action.Action{Op: action.Focus, Group: st.Shown[0].ID})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("focus: status %d", res.StatusCode)
	}
	if after.Focus == nil || len(after.Focus.Histograms) == 0 {
		t.Fatal("focus returned no histograms")
	}

	// Both renderings are session-scoped; focus.svg needs a focus.
	unfocused := createSession(t, ts).Session
	for _, c := range []struct {
		sid, name string
		want      int
	}{
		{sid, "groupviz.svg", http.StatusOK},
		{sid, "focus.svg", http.StatusOK},
		{unfocused, "groupviz.svg", http.StatusOK},
		{unfocused, "focus.svg", http.StatusNotFound},
		{"deadbeef", "groupviz.svg", http.StatusNotFound},
	} {
		res, err := http.Get(ts.URL + "/api/v1/sessions/" + c.sid + "/" + c.name)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != c.want {
			t.Fatalf("%s for %s: status %d, want %d", c.name, c.sid, res.StatusCode, c.want)
		}
		if ct := res.Header.Get("Content-Type"); c.want == http.StatusOK && ct != "image/svg+xml" {
			t.Fatalf("%s content type %q", c.name, ct)
		}
	}
}

// TestLegacyAddressesGone: the pre-v1 session addresses answer 404 or
// 405 — never 200 — even though GET / is registered (for the page).
func TestLegacyAddressesGone(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	sid := createSession(t, ts).Session
	for _, c := range []struct{ method, path string }{
		{http.MethodPost, "/api/session"},
		{http.MethodDelete, "/api/session?sid=" + sid},
		{http.MethodGet, "/api/state?sid=" + sid},
		{http.MethodGet, "/api/groupviz.svg?sid=" + sid},
		{http.MethodGet, "/api/focus.svg?sid=" + sid},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusNotFound && res.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 404 or 405", c.method, c.path, res.StatusCode)
		}
	}
}

// ---------------------------------------------------------------------------
// 4xx paths.

func TestBadSessionAndParams(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st := createSession(t, ts)
	sid := st.Session

	cases := []struct {
		name string
		do   func() *http.Response
		want int
	}{
		{"state unknown sid", func() *http.Response {
			_, res := getState(t, ts, "deadbeef")
			return res
		}, http.StatusNotFound},
		{"explore unknown sid", func() *http.Response {
			_, res := act(t, ts, "deadbeef", action.Action{Op: action.Explore, Group: 0})
			return res
		}, http.StatusNotFound},
		{"explore out-of-range gid", func() *http.Response {
			_, res := act(t, ts, sid, action.Action{Op: action.Explore, Group: 999999})
			return res
		}, http.StatusBadRequest},
		{"backtrack out-of-range step", func() *http.Response {
			_, res := act(t, ts, sid, action.Action{Op: action.Backtrack, Step: 42})
			return res
		}, http.StatusBadRequest},
		{"bookmark unknown user", func() *http.Response {
			_, res := act(t, ts, sid, action.Action{Op: action.BookmarkUser, User: "nobody"})
			return res
		}, http.StatusBadRequest},
		{"brush without focus", func() *http.Response {
			fresh := createSession(t, ts)
			_, res := act(t, ts, fresh.Session, action.Action{Op: action.Brush, Attr: "gender", Values: []string{"female"}})
			return res
		}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if res := c.do(); res.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, res.StatusCode, c.want)
		}
	}
}

func TestSessionDelete(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st := createSession(t, ts)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/sessions/"+st.Session, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", res.StatusCode)
	}
	if _, res := getState(t, ts, st.Session); res.StatusCode != http.StatusNotFound {
		t.Fatalf("state after delete: status %d, want 404", res.StatusCode)
	}
}

// ---------------------------------------------------------------------------
// Registry behavior: LRU capacity eviction and TTL sweeping.

func TestSessionLRUEviction(t *testing.T) {
	eng := testEngine(t)
	reg := newRegistry(eng, fastGreedy(), 0, 2)
	clock := time.Unix(1_700_000_000, 0)
	reg.now = func() time.Time { return clock }

	first, err := reg.create()
	if err != nil {
		t.Fatal(err)
	}
	second, err := reg.create()
	if err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(time.Minute)
	// Touch the first so the second is the LRU when the third arrives.
	if _, ok := reg.get(first.id); !ok {
		t.Fatal("touch first failed")
	}
	third, err := reg.create()
	if err != nil {
		t.Fatalf("create at capacity with an idle LRU: %v", err)
	}
	if _, ok := reg.get(second.id); ok {
		t.Fatal("LRU session survived capacity eviction")
	}
	for _, cs := range []*clientSession{first, third} {
		if _, ok := reg.get(cs.id); !ok {
			t.Fatalf("session %s evicted wrongly", cs.id)
		}
	}
}

// TestSessionCreateBurstDoesNotEvictActive: when the registry is full
// of recently active sessions, a creation burst gets 503s instead of
// evicting live explorers.
func TestSessionCreateBurstDoesNotEvictActive(t *testing.T) {
	scfg := DefaultConfig()
	scfg.MaxSessions = 2
	_, ts := testServer(t, scfg)

	first := createSession(t, ts)
	second := createSession(t, ts)
	_, res := post(t, ts, "/api/v1/sessions", nil)
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create over active capacity: status %d, want 503", res.StatusCode)
	}
	for _, sid := range []string{first.Session, second.Session} {
		if _, res := getState(t, ts, sid); res.StatusCode != http.StatusOK {
			t.Fatalf("active session %s lost to creation burst: status %d", sid, res.StatusCode)
		}
	}
}

// TestUnlimitedSessions: max <= 0 means no cap (mirroring ttl <= 0 =
// never expire), not a one-session server.
func TestUnlimitedSessions(t *testing.T) {
	reg := newRegistry(testEngine(t), fastGreedy(), 0, 0)
	for i := 0; i < 5; i++ {
		if _, err := reg.create(); err != nil {
			t.Fatalf("create %d with unlimited sessions: %v", i, err)
		}
	}
	if reg.count() != 5 {
		t.Fatalf("count = %d, want 5", reg.count())
	}
}

func TestRegistryTTLSweep(t *testing.T) {
	eng := testEngine(t)
	reg := newRegistry(eng, fastGreedy(), 10*time.Minute, 100)
	clock := time.Unix(1_700_000_000, 0)
	reg.now = func() time.Time { return clock }

	a, err := reg.create()
	if err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(7 * time.Minute)
	b, err := reg.create()
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.sweep(); n != 0 {
		t.Fatalf("sweep evicted %d sessions before TTL", n)
	}
	clock = clock.Add(5 * time.Minute) // a idle 12m, b idle 5m
	if n := reg.sweep(); n != 1 {
		t.Fatalf("sweep evicted %d sessions, want 1", n)
	}
	if _, ok := reg.get(a.id); ok {
		t.Fatal("idle session survived the sweep")
	}
	if _, ok := reg.get(b.id); !ok {
		t.Fatal("active session was swept")
	}
	if reg.count() != 1 {
		t.Fatalf("count = %d, want 1", reg.count())
	}
}

// ---------------------------------------------------------------------------
// Concurrency: disjoint sessions must be fully isolated under load.
// Run with -race (CI does).

func TestConcurrentSessionIsolation(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	const explorers = 8
	const steps = 6

	var wg sync.WaitGroup
	errs := make(chan error, explorers)
	for e := 0; e < explorers; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			st := createSessionErr(ts)
			if st == nil {
				errs <- fmt.Errorf("explorer %d: session create failed", e)
				return
			}
			sid := st.Session
			// Each explorer bookmarks a distinct group, then walks its
			// own path; the bookmark must survive every step untouched
			// by the other explorers.
			myBookmark := st.Shown[e%len(st.Shown)].ID
			cur, res := actErr(ts, sid, action.Action{Op: action.BookmarkGroup, Group: myBookmark})
			if res == nil || res.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("explorer %d: bookmark failed", e)
				return
			}
			wantHistory := 1
			for i := 0; i < steps; i++ {
				if i == steps/2 {
					// Mid-walk backtrack to the start.
					cur, res = actErr(ts, sid, action.Action{Op: action.Backtrack, Step: 0})
					if res == nil || res.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("explorer %d: backtrack failed", e)
						return
					}
					wantHistory = 1
					continue
				}
				if len(cur.Shown) == 0 {
					errs <- fmt.Errorf("explorer %d: empty display mid-walk", e)
					return
				}
				g := cur.Shown[(e+i)%len(cur.Shown)].ID
				cur, res = actErr(ts, sid, action.Action{Op: action.Explore, Group: g})
				if res == nil || res.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("explorer %d: explore failed (status %v)", e, res)
					return
				}
				wantHistory++
				if cur.Session != sid {
					errs <- fmt.Errorf("explorer %d: state leaked session %s", e, cur.Session)
					return
				}
				if cur.Focal != g {
					errs <- fmt.Errorf("explorer %d: focal %d, want %d", e, cur.Focal, g)
					return
				}
				if len(cur.History) != wantHistory {
					errs <- fmt.Errorf("explorer %d: history %d, want %d", e, len(cur.History), wantHistory)
					return
				}
				if len(cur.Memo.Groups) != 1 {
					errs <- fmt.Errorf("explorer %d: memo cross-contaminated: %v", e, cur.Memo.Groups)
					return
				}
			}
		}(e)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// createSessionErr is the non-fatal variant used inside stress
// goroutines (testing.T is not goroutine-safe for Fatal).
func createSessionErr(ts *httptest.Server) *stateDTO {
	res, err := http.Post(ts.URL+"/api/v1/sessions", "application/x-www-form-urlencoded", nil)
	if err != nil {
		return nil
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		return nil
	}
	var st stateDTO
	if json.NewDecoder(res.Body).Decode(&st) != nil {
		return nil
	}
	return &st
}

// TestConcurrentSameSessionSerializes: hammering ONE session from many
// goroutines must not corrupt it — the per-session mutex serializes,
// and the history grows by exactly the number of successful explores.
func TestConcurrentSameSessionSerializes(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st := createSession(t, ts)
	sid := st.Session
	g := st.Shown[0].ID

	const hammers = 16
	var wg sync.WaitGroup
	var ok int64
	var mu sync.Mutex
	for i := 0; i < hammers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, res := actErr(ts, sid, action.Action{Op: action.Explore, Group: g})
			if res != nil && res.StatusCode == http.StatusOK {
				mu.Lock()
				ok++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	final, res := getState(t, ts, sid)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("final state: status %d", res.StatusCode)
	}
	if int64(len(final.History)) != ok+1 {
		t.Fatalf("history %d steps after %d successful explores, want %d",
			len(final.History), ok, ok+1)
	}
}
