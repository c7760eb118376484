package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vexus/internal/action"
)

// writeSpecs populates a catalog dir with two small synthetic datasets
// and returns the dir.
func writeSpecs(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	specs := map[string]string{
		"authors": `{"dataset":"dbauthors","n":200,"seed":11,"minsup":0.05}`,
		"books":   `{"dataset":"dbauthors","n":250,"seed":12,"minsup":0.05}`,
	}
	for name, body := range specs {
		if err := os.WriteFile(filepath.Join(dir, name+".json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func catalogServer(t testing.TB, dir string, maxEngines int) (*Catalog, *httptest.Server) {
	t.Helper()
	specs, err := ScanCatalogDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := NewCatalog(dir, specs, "", fastGreedy(), DefaultConfig(), 2, maxEngines)
	if err != nil {
		t.Fatal(err)
	}
	s := NewCatalogServer(cat)
	ts := httptest.NewServer(s.Routes())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return cat, ts
}

func TestCatalogSessionScoping(t *testing.T) {
	_, ts := catalogServer(t, writeSpecs(t), 0)

	a, res := post(t, ts, "/api/v1/sessions", url.Values{"dataset": {"authors"}})
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("create authors session: status %d", res.StatusCode)
	}
	if a.Dataset != "authors" {
		t.Fatalf("session dataset %q, want authors", a.Dataset)
	}
	b, res := post(t, ts, "/api/v1/sessions", url.Values{"dataset": {"books"}})
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("create books session: status %d", res.StatusCode)
	}
	if b.Dataset != "books" {
		t.Fatalf("session dataset %q, want books", b.Dataset)
	}
	// Both sessions resolve through the shared sid namespace, each
	// against its own engine.
	for _, st := range []stateDTO{a, b} {
		got, res := getState(t, ts, st.Session)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("state %s: status %d", st.Session, res.StatusCode)
		}
		if got.Dataset != st.Dataset {
			t.Fatalf("state dataset %q, want %q", got.Dataset, st.Dataset)
		}
	}
	// Exploring a books session works against the books group space.
	after, res := act(t, ts, b.Session, action.Action{Op: action.Explore, Group: b.Shown[0].ID})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("explore books: status %d", res.StatusCode)
	}
	if after.Focal != b.Shown[0].ID {
		t.Fatalf("books explore focal %d, want %d", after.Focal, b.Shown[0].ID)
	}

	// Occupancy is reported per dataset.
	resp, err := http.Get(ts.URL + "/api/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var occ struct {
		Sessions   int            `json:"sessions"`
		PerDataset map[string]int `json:"perDataset"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&occ); err != nil {
		t.Fatal(err)
	}
	if occ.Sessions != 2 || occ.PerDataset["authors"] != 1 || occ.PerDataset["books"] != 1 {
		t.Fatalf("occupancy %+v, want 1 session on each of 2 datasets", occ)
	}
}

func TestCatalogDefaultAndUnknownDataset(t *testing.T) {
	_, ts := catalogServer(t, writeSpecs(t), 0)

	// No dataset parameter: the lexicographically first name serves.
	st, res := post(t, ts, "/api/v1/sessions", nil)
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("default create: status %d", res.StatusCode)
	}
	if st.Dataset != "authors" {
		t.Fatalf("default dataset %q, want authors", st.Dataset)
	}
	// Unknown names 404 instead of silently falling back.
	_, res = post(t, ts, "/api/v1/sessions", url.Values{"dataset": {"nope"}})
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset: status %d, want 404", res.StatusCode)
	}
}

func TestCatalogListsDatasets(t *testing.T) {
	_, ts := catalogServer(t, writeSpecs(t), 0)
	if _, res := post(t, ts, "/api/v1/sessions", url.Values{"dataset": {"authors"}}); res.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", res.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/api/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Default  string          `json:"default"`
		Datasets []DatasetStatus `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Default != "authors" || len(list.Datasets) != 2 {
		t.Fatalf("catalog listing %+v", list)
	}
	byName := map[string]DatasetStatus{}
	for _, d := range list.Datasets {
		byName[d.Name] = d
	}
	if !byName["authors"].Resident || byName["authors"].Sessions != 1 {
		t.Fatalf("authors status %+v, want resident with 1 session", byName["authors"])
	}
	if byName["books"].Resident {
		t.Fatalf("books built without anyone asking: %+v", byName["books"])
	}
}

// TestCatalogSnapshotWarmStart: the first build writes <name>.snap; a
// fresh catalog over the same directory serves it as a warm start.
func TestCatalogSnapshotWarmStart(t *testing.T) {
	dir := writeSpecs(t)
	cat1, ts1 := catalogServer(t, dir, 0)
	if _, res := post(t, ts1, "/api/v1/sessions", url.Values{"dataset": {"authors"}}); res.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", res.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, "authors.snap")); err != nil {
		t.Fatalf("snapshot not written on first build: %v", err)
	}
	if cat1.status()[0].Warm {
		t.Fatal("first build reported as warm")
	}

	cat2, ts2 := catalogServer(t, dir, 0)
	st, res := post(t, ts2, "/api/v1/sessions", url.Values{"dataset": {"authors"}})
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("warm create: status %d", res.StatusCode)
	}
	if len(st.Shown) == 0 {
		t.Fatal("warm-started session shows no groups")
	}
	for _, d := range cat2.status() {
		if d.Name == "authors" && !d.Warm {
			t.Fatal("second catalog start did not warm-load the snapshot")
		}
	}
}

// TestCatalogEngineLRUEviction: with a resident cap of 1, building the
// second dataset evicts the first (it has sessions, but it is the only
// candidate), and its sessions die with it — exactly like a TTL expiry.
func TestCatalogEngineLRUEviction(t *testing.T) {
	cat, ts := catalogServer(t, writeSpecs(t), 1)

	a, res := post(t, ts, "/api/v1/sessions", url.Values{"dataset": {"authors"}})
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("create authors: status %d", res.StatusCode)
	}
	b, res := post(t, ts, "/api/v1/sessions", url.Values{"dataset": {"books"}})
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("create books: status %d", res.StatusCode)
	}
	resident := 0
	for _, d := range cat.status() {
		if d.Resident {
			resident++
			if d.Name != "books" {
				t.Fatalf("resident dataset %q, want books", d.Name)
			}
		}
	}
	if resident != 1 {
		t.Fatalf("%d resident engines, want 1", resident)
	}
	if _, res := getState(t, ts, a.Session); res.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted dataset's session: status %d, want 404", res.StatusCode)
	}
	if _, res := getState(t, ts, b.Session); res.StatusCode != http.StatusOK {
		t.Fatalf("surviving dataset's session: status %d", res.StatusCode)
	}
	// The evicted dataset rebuilds (warm, from its snapshot) on demand.
	if _, res := post(t, ts, "/api/v1/sessions", url.Values{"dataset": {"authors"}}); res.StatusCode != http.StatusCreated {
		t.Fatalf("re-acquire evicted dataset: status %d", res.StatusCode)
	}
}

// TestCatalogSingleflight: concurrent first requests for one dataset
// share a single build — every caller lands on the same engine.
func TestCatalogSingleflight(t *testing.T) {
	dir := writeSpecs(t)
	specs, err := ScanCatalogDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := NewCatalog(dir, specs, "", fastGreedy(), DefaultConfig(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	const callers = 8
	entries := make([]*catalogEntry, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, err := cat.acquire("authors")
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if entries[i] == nil || entries[0] == nil || entries[i].eng != entries[0].eng {
			t.Fatalf("caller %d got a different engine instance", i)
		}
	}
}

// TestStateETagRoundTrip: GET /api/v1/sessions/{sid}/state carries an ETag derived from
// the session's mutation counter; If-None-Match on the current value
// gets 304 with no body, and any mutation invalidates it.
func TestStateETagRoundTrip(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st := createSession(t, ts)
	sid := st.Session

	res1, err := http.Get(ts.URL + "/api/v1/sessions/" + sid + "/state")
	if err != nil {
		t.Fatal(err)
	}
	res1.Body.Close()
	etag := res1.Header.Get("ETag")
	if etag == "" {
		t.Fatal("state response carries no ETag")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/sessions/"+sid+"/state", nil)
	req.Header.Set("If-None-Match", etag)
	res2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
	if res2.StatusCode != http.StatusNotModified {
		t.Fatalf("fresh If-None-Match: status %d, want 304", res2.StatusCode)
	}
	if got := res2.Header.Get("ETag"); got != etag {
		t.Fatalf("304 ETag %q, want %q", got, etag)
	}

	// A mutation bumps the validator: the old one no longer matches,
	// and the mutation response already carries the new one.
	after, res := act(t, ts, sid, action.Action{Op: action.Explore, Group: st.Shown[0].ID})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("explore: status %d", res.StatusCode)
	}
	if after.Focal != st.Shown[0].ID {
		t.Fatalf("explore focal %d", after.Focal)
	}
	newTag := res.Header.Get("ETag")
	if newTag == "" || newTag == etag {
		t.Fatalf("mutation ETag %q did not advance from %q", newTag, etag)
	}
	req, _ = http.NewRequest("GET", ts.URL+"/api/v1/sessions/"+sid+"/state", nil)
	req.Header.Set("If-None-Match", etag)
	res3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res3.Body.Close()
	if res3.StatusCode != http.StatusOK {
		t.Fatalf("stale If-None-Match: status %d, want 200", res3.StatusCode)
	}
	var full stateDTO
	if err := json.NewDecoder(res3.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	if full.Focal != st.Shown[0].ID {
		t.Fatalf("stale-validator refetch focal %d", full.Focal)
	}
	if got := res3.Header.Get("ETag"); got != newTag {
		t.Fatalf("refetch ETag %q, want %q", got, newTag)
	}
}
