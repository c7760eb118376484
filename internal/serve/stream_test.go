package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"vexus/internal/action"
)

// ---------------------------------------------------------------------------
// SSE test client: a real streaming GET plus a line-parsing goroutine,
// so tests assert on whole events instead of raw chunks.

type sseEvent struct {
	id   string
	name string
	data string
}

type sseStream struct {
	res    *http.Response
	events chan sseEvent
}

// openStream attaches to url (optionally resuming after lastEventID)
// and pumps parsed events; on a non-200 the response is returned for
// the caller to assert on and the event channel is closed immediately.
func openStream(t testing.TB, url, lastEventID string) *sseStream {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	res, err := http.DefaultClient.Do(req) // DefaultClient: no timeout
	if err != nil {
		t.Fatal(err)
	}
	s := &sseStream{res: res, events: make(chan sseEvent, 64)}
	t.Cleanup(s.close)
	if res.StatusCode != http.StatusOK {
		close(s.events)
		return s
	}
	go func() {
		defer close(s.events)
		sc := bufio.NewScanner(res.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if ev.name != "" {
					s.events <- ev
				}
				ev = sseEvent{}
			case strings.HasPrefix(line, ":"): // heartbeat comment
			case strings.HasPrefix(line, "id: "):
				ev.id = line[len("id: "):]
			case strings.HasPrefix(line, "event: "):
				ev.name = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				ev.data = line[len("data: "):]
			}
		}
	}()
	return s
}

func (s *sseStream) close() { s.res.Body.Close() }

// next waits for the next event; fails the test on timeout or EOF.
func (s *sseStream) next(t testing.TB) sseEvent {
	t.Helper()
	select {
	case ev, ok := <-s.events:
		if !ok {
			t.Fatal("stream ended before the expected event")
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for an SSE event")
	}
	panic("unreachable")
}

// ended reports whether the stream terminates (EOF) without another
// event — the expected epilogue after a terminal closed frame.
func (s *sseStream) ended(t testing.TB) bool {
	t.Helper()
	select {
	case ev, ok := <-s.events:
		if ok {
			t.Fatalf("expected stream end, got event %q id=%s", ev.name, ev.id)
		}
		return true
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for stream end")
	}
	return false
}

// etagMut extracts the mutation counter from a `"<sid>.<n>"` ETag.
func etagMut(t testing.TB, etag string) uint64 {
	t.Helper()
	i := strings.LastIndex(etag, ".")
	if i < 0 || !strings.HasSuffix(etag, `"`) {
		t.Fatalf("malformed etag %q", etag)
	}
	n, err := strconv.ParseUint(etag[i+1:len(etag)-1], 10, 64)
	if err != nil {
		t.Fatalf("malformed etag %q: %v", etag, err)
	}
	return n
}

// TestStreamDiffIDsMatchETags is the cursor-unification contract: a
// fresh attach opens with one full-state resync at the current
// counter, and every subsequent mutation arrives as a diff event whose
// id equals the mutation counter the action response's ETag carries.
func TestStreamDiffIDsMatchETags(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, etag := createV1Session(t, ts)

	stream := openStream(t, ts.URL+"/api/v1/sessions/"+st.Session+"/events", "")
	ev := stream.next(t)
	if ev.name != "resync" {
		t.Fatalf("first event %q, want resync", ev.name)
	}
	if want := fmt.Sprint(etagMut(t, etag)); ev.id != want {
		t.Fatalf("resync id %s, want %s (create ETag %s)", ev.id, want, etag)
	}
	var snap stateDTO
	if err := json.Unmarshal([]byte(ev.data), &snap); err != nil {
		t.Fatalf("resync payload: %v", err)
	}
	if snap.Session != st.Session {
		t.Fatalf("resync session %q, want %q", snap.Session, st.Session)
	}

	cur := st
	for i := 0; i < 3; i++ {
		next, res := act(t, ts, st.Session, action.Action{Op: action.Explore, Group: cur.Shown[0].ID})
		wantID := etagMut(t, res.Header.Get("ETag"))
		ev := stream.next(t)
		if ev.name != "diff" {
			t.Fatalf("event %d: name %q, want diff", i, ev.name)
		}
		if ev.id != fmt.Sprint(wantID) {
			t.Fatalf("event %d: id %s, want %d", i, ev.id, wantID)
		}
		var d action.Diff
		if err := json.Unmarshal([]byte(ev.data), &d); err != nil {
			t.Fatalf("diff payload: %v", err)
		}
		if d.Mutations != wantID {
			t.Fatalf("diff.mutations %d, want %d", d.Mutations, wantID)
		}
		if d.Op != action.Explore {
			t.Fatalf("diff.op %q, want explore", d.Op)
		}
		cur = next
	}
}

// TestStreamResume pins Last-Event-ID semantics: a resume within the
// replay ring receives exactly the missed diffs (no resync, no dupes,
// no gaps) and then goes live; a resume at the head preloads nothing.
func TestStreamResume(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, _ := createV1Session(t, ts)

	cur := st
	for i := 0; i < 4; i++ { // mutations 2..5
		cur, _ = act(t, ts, st.Session, action.Action{Op: action.Explore, Group: cur.Shown[0].ID})
	}

	stream := openStream(t, ts.URL+"/api/v1/sessions/"+st.Session+"/events", "2")
	for want := uint64(3); want <= 5; want++ {
		ev := stream.next(t)
		if ev.name != "diff" || ev.id != fmt.Sprint(want) {
			t.Fatalf("resume replay: got %q id=%s, want diff id=%d", ev.name, ev.id, want)
		}
	}
	// The stream is live after the replay: the next mutation flows.
	cur, _ = act(t, ts, st.Session, action.Action{Op: action.Explore, Group: cur.Shown[0].ID})
	if ev := stream.next(t); ev.name != "diff" || ev.id != "6" {
		t.Fatalf("post-replay: got %q id=%s, want diff id=6", ev.name, ev.id)
	}

	// Resume at the head: nothing to replay, straight to live. The
	// cursor also rides ?lastEventID= for clients that cannot set the
	// reconnect header (a fresh EventSource).
	head := openStream(t, ts.URL+"/api/v1/sessions/"+st.Session+"/events?"+
		url.Values{"lastEventID": {"6"}}.Encode(), "")
	act(t, ts, st.Session, action.Action{Op: action.Explore, Group: cur.Shown[0].ID})
	if ev := head.next(t); ev.name != "diff" || ev.id != "7" {
		t.Fatalf("head resume: got %q id=%s, want diff id=7", ev.name, ev.id)
	}
}

// TestStreamResumeBeyondRing pins the drop-to-resync contract: when
// the gap since Last-Event-ID exceeds the replay ring, the server
// answers with one full-snapshot resync at the current counter — it
// never serves a gapped diff sequence.
func TestStreamResumeBeyondRing(t *testing.T) {
	_, ts := testServer(t, Config{StreamReplay: 2})
	st, _ := createV1Session(t, ts)

	cur := st
	var last string
	for i := 0; i < 5; i++ { // mutations 2..6; ring holds only {5,6}
		var res *http.Response
		cur, res = act(t, ts, st.Session, action.Action{Op: action.Explore, Group: cur.Shown[0].ID})
		last = res.Header.Get("ETag")
	}

	stream := openStream(t, ts.URL+"/api/v1/sessions/"+st.Session+"/events", "2")
	ev := stream.next(t)
	if ev.name != "resync" {
		t.Fatalf("beyond-ring resume: got %q, want resync", ev.name)
	}
	if want := fmt.Sprint(etagMut(t, last)); ev.id != want {
		t.Fatalf("resync id %s, want %s", ev.id, want)
	}
	// Still covered: the ring's own tail resumes exactly.
	tail := openStream(t, ts.URL+"/api/v1/sessions/"+st.Session+"/events", "4")
	for want := 5; want <= 6; want++ {
		ev := tail.next(t)
		if ev.name != "diff" || ev.id != fmt.Sprint(want) {
			t.Fatalf("ring tail: got %q id=%s, want diff id=%d", ev.name, ev.id, want)
		}
	}
}

// TestStreamDeleteSendsClosed pins the teardown contract: deleting a
// session delivers a terminal `event: closed` with reason "deleted"
// (carrying no id, so a client's resume cursor stays on the last
// diff), then the stream ends.
func TestStreamDeleteSendsClosed(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, _ := createV1Session(t, ts)
	stream := openStream(t, ts.URL+"/api/v1/sessions/"+st.Session+"/events", "")
	if ev := stream.next(t); ev.name != "resync" {
		t.Fatalf("first event %q, want resync", ev.name)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/sessions/"+st.Session, nil)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()

	ev := stream.next(t)
	if ev.name != "closed" {
		t.Fatalf("got %q, want closed", ev.name)
	}
	if ev.id != "" {
		t.Fatalf("closed frame carries id %q; it must not advance the resume cursor", ev.id)
	}
	var body struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal([]byte(ev.data), &body); err != nil || body.Reason != "deleted" {
		t.Fatalf("closed reason %q (err %v), want deleted", body.Reason, err)
	}
	stream.ended(t)

	// A late attach to the dead session is a plain 404, not a hang.
	gone := openStream(t, ts.URL+"/api/v1/sessions/"+st.Session+"/events", "")
	if gone.res.StatusCode != http.StatusNotFound {
		t.Fatalf("attach after delete: status %d, want 404", gone.res.StatusCode)
	}
}

// TestStreamMultiClientConvergence is the collaborative contract over
// HTTP: N attached clients observe the identical diff sequence for an
// interleaved action trail, and every client's final state read is
// byte-identical.
func TestStreamMultiClientConvergence(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, _ := createV1Session(t, ts)

	const clients = 3
	streams := make([]*sseStream, clients)
	for i := range streams {
		streams[i] = openStream(t, ts.URL+"/api/v1/sessions/"+st.Session+"/events", "")
		if ev := streams[i].next(t); ev.name != "resync" {
			t.Fatalf("client %d: first event %q, want resync", i, ev.name)
		}
	}

	cur := st
	const steps = 5
	for i := 0; i < steps; i++ {
		g := cur.Shown[i%len(cur.Shown)].ID
		a := action.Action{Op: action.Explore, Group: g}
		if i%2 == 1 {
			a = action.Action{Op: action.BookmarkGroup, Group: g}
		}
		cur, _ = act(t, ts, st.Session, a)
	}

	var wantSeq []sseEvent
	for i := 0; i < clients; i++ {
		var seq []sseEvent
		for j := 0; j < steps; j++ {
			seq = append(seq, streams[i].next(t))
		}
		if i == 0 {
			wantSeq = seq
			for j, ev := range seq {
				if ev.name != "diff" || ev.id != fmt.Sprint(j+2) {
					t.Fatalf("event %d: %q id=%s, want diff id=%d", j, ev.name, ev.id, j+2)
				}
			}
			continue
		}
		for j := range seq {
			if seq[j] != wantSeq[j] {
				t.Fatalf("client %d diverged at event %d:\n got %+v\nwant %+v", i, j, seq[j], wantSeq[j])
			}
		}
	}

	var states [clients]string
	for i := range states {
		res, err := http.Get(ts.URL + "/api/v1/sessions/" + st.Session + "/state")
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		sc := bufio.NewScanner(res.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
		for sc.Scan() {
			buf.WriteString(sc.Text())
		}
		res.Body.Close()
		states[i] = buf.String()
	}
	for i := 1; i < clients; i++ {
		if states[i] != states[0] {
			t.Fatalf("client %d read a different final state", i)
		}
	}
}

// TestHubOverflowNeverBlocksPublisher is the backpressure contract at
// the hub level (HTTP-level overflow depends on TCP buffering, so the
// bound is pinned where it lives): publish into a full subscriber
// queue returns immediately, marks the subscriber lost exactly once,
// and keeps serving the other subscribers.
func TestHubOverflowNeverBlocksPublisher(t *testing.T) {
	h := newStreamHub(2, 8)
	slow := h.subscribe(nil)
	fast := h.subscribe(nil)

	pub := func(id uint64) {
		done := make(chan struct{})
		go func() {
			h.publish(action.Result{Diff: action.Diff{Mutations: id}})
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("publish %d blocked", id)
		}
	}

	for id := uint64(1); id <= 5; id++ {
		pub(id)
		// Keep fast drained so only slow overflows.
		select {
		case ev := <-fast.queue:
			if ev.id != id {
				t.Fatalf("fast subscriber got id %d, want %d", ev.id, id)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("fast subscriber starved at id %d", id)
		}
	}

	select {
	case <-slow.lost:
	default:
		t.Fatal("slow subscriber not marked lost after overflow")
	}
	select {
	case <-fast.lost:
		t.Fatal("fast subscriber spuriously marked lost")
	default:
	}

	// The lost subscriber re-subscribes (what the serving goroutine does
	// before emitting a resync) and is live again.
	again := h.subscribe(slow)
	pub(6)
	select {
	case ev := <-again.queue:
		if ev.id != 6 {
			t.Fatalf("resubscribed got id %d, want 6", ev.id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("resubscribed subscriber got nothing")
	}

	// And the ring is contiguous over everything published.
	tail, ok := h.tailAfter(3)
	if !ok || len(tail) != 3 || tail[0].id != 4 || tail[2].id != 6 {
		t.Fatalf("tailAfter(3) = %v (ok=%v), want ids 4..6", tail, ok)
	}
}

// TestStreamOverflowDropsToResync drives the overflow recovery end to
// end over HTTP: a subscriber whose queue overflows receives a resync
// at the current counter and the stream continues live afterwards.
func TestStreamOverflowDropsToResync(t *testing.T) {
	srv, ts := testServer(t, Config{StreamQueue: 1})
	st, _ := createV1Session(t, ts)

	stream := openStream(t, ts.URL+"/api/v1/sessions/"+st.Session+"/events", "")
	if ev := stream.next(t); ev.name != "resync" {
		t.Fatalf("first event %q, want resync", ev.name)
	}

	// Overflow the queue at the hub while the serving goroutine is
	// parked: publish under the session lock, as OnDiff does. With
	// queueCap 1 the first publish fills the queue and the second marks
	// the subscriber lost.
	cs, ok := srv.cat.findSession(st.Session)
	if !ok {
		t.Fatal("session vanished")
	}
	cur := st
	for i := 0; i < 3; i++ {
		cur, _ = act(t, ts, st.Session, action.Action{Op: action.Explore, Group: cur.Shown[0].ID})
	}
	_ = cs

	// The client must land on a consistent cursor: some diffs, then —
	// once the overflow hit — exactly one resync whose id is ≥ the last
	// diff seen, then live events. Scan until the resync.
	var lastDiff, resyncAt uint64
	for {
		ev := stream.next(t)
		switch ev.name {
		case "diff":
			id, _ := strconv.ParseUint(ev.id, 10, 64)
			if id <= lastDiff {
				t.Fatalf("diff id %d not after %d", id, lastDiff)
			}
			lastDiff = id
		case "resync":
			resyncAt, _ = strconv.ParseUint(ev.id, 10, 64)
		default:
			t.Fatalf("unexpected event %q", ev.name)
		}
		if resyncAt > 0 {
			break
		}
		if lastDiff >= 4 {
			// All diffs arrived without overflow (scheduling won the
			// race); that is a legal outcome of a bounded queue test.
			return
		}
	}
	if resyncAt < lastDiff {
		t.Fatalf("resync at %d behind last diff %d", resyncAt, lastDiff)
	}
	// Live again after the resync.
	act(t, ts, st.Session, action.Action{Op: action.Explore, Group: cur.Shown[0].ID})
	ev := stream.next(t)
	if ev.name != "diff" && ev.name != "resync" {
		t.Fatalf("stream dead after overflow recovery: %q", ev.name)
	}
}

// TestEvictionPinsStreamingSessions is the regression test for both
// eviction paths reaping sessions with live subscribers: the TTL
// sweeper and the LRU capacity evictor must both skip a session whose
// hub has attached streams, and resume evicting once they detach.
func TestEvictionPinsStreamingSessions(t *testing.T) {
	eng := testEngine(t)

	t.Run("ttl-sweep", func(t *testing.T) {
		reg := newRegistry(eng, fastGreedy(), time.Minute, 0)
		defer reg.close()
		clock := time.Unix(1000, 0)
		reg.now = func() time.Time { return clock }
		cs, err := reg.create()
		if err != nil {
			t.Fatal(err)
		}
		sub := cs.hub.subscribe(nil)
		clock = clock.Add(time.Hour)
		if n := reg.sweep(); n != 0 {
			t.Fatalf("sweep reaped %d sessions under a live stream", n)
		}
		if _, ok := reg.get(cs.id); !ok {
			t.Fatal("streaming session swept")
		}
		clock = clock.Add(time.Hour) // get() above refreshed recency
		cs.hub.unsubscribe(sub)
		if n := reg.sweep(); n != 1 {
			t.Fatalf("sweep after detach reaped %d, want 1", n)
		}
	})

	t.Run("lru-capacity", func(t *testing.T) {
		reg := newRegistry(eng, fastGreedy(), 0, 1)
		defer reg.close()
		clock := time.Unix(1000, 0)
		reg.now = func() time.Time { return clock }
		pinned, err := reg.create()
		if err != nil {
			t.Fatal(err)
		}
		sub := pinned.hub.subscribe(nil)
		clock = clock.Add(time.Hour) // far past minEvictIdle
		if _, err := reg.create(); !errors.Is(err, errServerFull) {
			t.Fatalf("create with the only session pinned: err %v, want errServerFull", err)
		}
		cs2, err := func() (*clientSession, error) {
			pinned.hub.unsubscribe(sub)
			return reg.create()
		}()
		if err != nil {
			t.Fatalf("create after detach: %v", err)
		}
		if _, ok := reg.get(pinned.id); ok {
			t.Fatal("unpinned LRU session survived capacity eviction")
		}
		// The evicted session's streams (none now, but the hub) closed
		// with a final reason.
		if s := pinned.hub.subscribe(nil); s != nil {
			t.Fatal("evicted session's hub still accepts subscribers")
		}
		_ = cs2
	})
}

// TestCatalogEngineEvictionClosesStreams pins satellite #3: when the
// catalog's resident-engine cap evicts a dataset, sessions die loudly —
// every attached stream receives `event: closed` with the eviction
// reason before teardown.
func TestCatalogEngineEvictionClosesStreams(t *testing.T) {
	_, ts := catalogServer(t, writeSpecs(t), 1)

	a, res := post(t, ts, "/api/v1/sessions", url.Values{"dataset": {"authors"}})
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("create authors session: status %d", res.StatusCode)
	}
	stream := openStream(t, ts.URL+"/api/v1/sessions/"+a.Session+"/events", "")
	if ev := stream.next(t); ev.name != "resync" {
		t.Fatalf("first event %q, want resync", ev.name)
	}

	// Touching the second dataset overflows maxResident=1 and evicts
	// authors along with its sessions.
	if _, res := post(t, ts, "/api/v1/sessions", url.Values{"dataset": {"books"}}); res.StatusCode != http.StatusCreated {
		t.Fatalf("create books session: status %d", res.StatusCode)
	}

	ev := stream.next(t)
	if ev.name != "closed" {
		t.Fatalf("got %q, want closed", ev.name)
	}
	var body struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal([]byte(ev.data), &body); err != nil || body.Reason != "dataset evicted" {
		t.Fatalf("closed reason %q (err %v), want 'dataset evicted'", body.Reason, err)
	}
	stream.ended(t)
}
