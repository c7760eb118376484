package loadsim

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"vexus/internal/cluster"
	"vexus/internal/membership"
	"vexus/internal/serve"
	"vexus/internal/telemetry"
)

// shardNode is one shard worker plus its harness-side state: the chaos
// switch in front of its handler and the fault flags it is under.
type shardNode struct {
	name  string
	srv   *serve.Server
	chaos *chaosHandler
	telem *telemetry.Registry

	killed      bool
	partitioned bool
	drained     bool
}

// chaosHandler is the fault switch in front of a shard handler.
// cluster.LocalShard's transport invokes handlers synchronously and
// can never produce a transport error, so unreachability is modeled
// the only way it can surface in-process: a 503 from the wire. Kill
// additionally closes the serve.Server underneath (severing SSE
// streams), which the switch here cannot do.
type chaosHandler struct {
	mu   sync.RWMutex
	h    http.Handler
	dead bool
}

func newChaosHandler(h http.Handler) *chaosHandler {
	return &chaosHandler{h: h}
}

func (c *chaosHandler) setDead(dead bool) {
	c.mu.Lock()
	c.dead = dead
	c.mu.Unlock()
}

func (c *chaosHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.RLock()
	dead, h := c.dead, c.h
	c.mu.RUnlock()
	if dead {
		http.Error(w, "shard unreachable (chaos)", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// gwClient drives the gateway handler in-process. The handler slot is
// swappable (the restart chaos op installs the rebuilt gateway);
// streams opened against the old handler keep their goroutines.
type gwClient struct {
	mu sync.RWMutex
	h  http.Handler
}

func (c *gwClient) swap(h http.Handler) {
	c.mu.Lock()
	c.h = h
	c.mu.Unlock()
}

func (c *gwClient) handler() http.Handler {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.h
}

// do issues one buffered request (recorder-backed, like
// cluster.LocalShard's regular client).
func (c *gwClient) do(method, path string, body []byte, ctype string) *http.Response {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, "http://gateway"+path, rd)
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	rec := httptest.NewRecorder()
	c.handler().ServeHTTP(rec, req)
	res := rec.Result()
	res.Request = req
	return res
}

// stream opens a live request (the SSE diff stream): the handler runs
// on its own goroutine against a pipe and the response is readable the
// moment headers are committed — the in-process mirror of
// cluster.LocalShard's streaming client, for the gateway handler.
func (c *gwClient) stream(ctx context.Context, path string) *http.Response {
	req := httptest.NewRequest(http.MethodGet, "http://gateway"+path, nil).WithContext(ctx)
	pr, pw := io.Pipe()
	sw := &pipeRecorder{header: make(http.Header), pw: pw, ready: make(chan struct{})}
	h := c.handler()
	go func() {
		h.ServeHTTP(sw, req)
		sw.commit(http.StatusOK)
		pw.Close()
	}()
	<-sw.ready
	return &http.Response{
		StatusCode:    sw.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        sw.snapshot,
		Body:          pr,
		ContentLength: -1,
		Request:       req,
	}
}

// pipeRecorder is the streaming ResponseWriter behind gwClient.stream
// (same shape as the cluster package's stream recorder: headers are
// snapshotted inside the commit Once so reader and handler goroutines
// never share a mutable map; Flush is a no-op because pipe writes
// already rendezvous with the reader).
type pipeRecorder struct {
	header   http.Header
	pw       *io.PipeWriter
	once     sync.Once
	status   int
	snapshot http.Header
	ready    chan struct{}
}

func (s *pipeRecorder) Header() http.Header  { return s.header }
func (s *pipeRecorder) WriteHeader(code int) { s.commit(code) }
func (s *pipeRecorder) Flush()               {}

func (s *pipeRecorder) commit(code int) {
	s.once.Do(func() {
		s.status = code
		s.snapshot = s.header.Clone()
		close(s.ready)
	})
}

func (s *pipeRecorder) Write(p []byte) (int, error) {
	s.commit(http.StatusOK)
	return s.pw.Write(p)
}

// heartbeats announces every reachable shard to the gateway — the
// gossip round that keeps the failure detector fed. Killed and
// partitioned shards stay silent, which is exactly how the detector
// learns about them.
func (h *harness) heartbeats() {
	for _, name := range h.names {
		n := h.nodes[name]
		if n.killed || n.partitioned || n.drained {
			continue
		}
		body, err := json.Marshal(membership.Member{Name: name})
		if err != nil {
			continue
		}
		res := h.gwc.do(http.MethodPost, "/internal/cluster/heartbeat", body, "application/json")
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
	}
}

// sseStream is one live diff-stream subscription as the harness tracks
// it: the reader goroutine parses SSE frames off the pipe and records
// the last delivered event id, the delivered-event count and the
// terminal close reason.
type sseStream struct {
	mu     sync.Mutex
	lastID uint64
	events uint64
	reason string
	closed bool

	cancel context.CancelFunc
	done   chan struct{}
}

func (st *sseStream) snapshotState() (uint64, uint64, string, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastID, st.events, st.reason, st.closed
}

// stop cancels the stream context and waits (bounded) for the reader.
func (st *sseStream) stop() {
	if st.cancel != nil {
		st.cancel()
	}
	select {
	case <-st.done:
	case <-time.After(5 * time.Second):
	}
}

// subscribe attaches a real SSE subscription for a live user. The
// stream transport returns only after the shard has registered the
// subscriber and committed headers, so from the next action on, every
// diff is queued for this stream — which, with drop-proof queue
// sizing, makes delivered-event counts deterministic.
func (h *harness) subscribe(u *user) {
	ctx, cancel := context.WithCancel(context.Background())
	res := h.gwc.stream(ctx, "/api/v1/sessions/"+u.sid+"/events")
	if res.StatusCode != http.StatusOK {
		cancel()
		res.Body.Close()
		h.sseFailed++
		return
	}
	st := &sseStream{cancel: cancel, done: make(chan struct{})}
	u.sse = st
	h.streams = append(h.streams, st)
	h.sseStarted++
	go st.read(res.Body)
}

// read parses SSE frames until the stream ends. Only diff/resync
// frames move the cursor; the terminal closed frame records why the
// stream ended. Comment keepalives are skipped.
func (st *sseStream) read(body io.ReadCloser) {
	defer func() {
		body.Close()
		st.mu.Lock()
		st.closed = true
		st.mu.Unlock()
		close(st.done)
	}()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var id uint64
	var event string
	var data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			switch event {
			case "diff", "resync":
				st.mu.Lock()
				st.lastID = id
				st.events++
				st.mu.Unlock()
			case "closed":
				var payload struct {
					Reason string `json:"reason"`
				}
				_ = json.Unmarshal([]byte(data), &payload)
				st.mu.Lock()
				st.reason = payload.Reason
				st.mu.Unlock()
				return
			}
			event, data = "", ""
		case strings.HasPrefix(line, "id: "):
			if n, err := strconv.ParseUint(line[len("id: "):], 10, 64); err == nil {
				id = n
			}
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		}
	}
}

// quiesceStreams waits (bounded wall time; never part of the Summary)
// until every open subscription has delivered through its user's
// current mutation counter. Chaos ops call it first, so a teardown's
// terminal frame never races queued diffs — the select between "queue"
// and "closed" in the serve handler is only nondeterministic when both
// are ready.
func (h *harness) quiesceStreams() {
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < h.cfg.Live; i++ {
		u := &h.users[i]
		if u.sse == nil || !u.alive {
			continue
		}
		for {
			lastID, _, _, closed := u.sse.snapshotState()
			if closed || lastID >= u.mut || time.Now().After(deadline) {
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// shardCounter scrapes one plain counter from a shard's private
// telemetry registry (works even for killed shards — the registry
// handler bypasses the chaos switch).
func (h *harness) shardCounter(n *shardNode, metric string) uint64 {
	rec := httptest.NewRecorder()
	n.telem.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "http://metrics/metrics", nil))
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, metric) {
			continue
		}
		rest := strings.TrimSpace(line[len(metric):])
		if rest == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(rest, 64); err == nil {
			return uint64(v)
		}
	}
	return 0
}

// restartGateway tears the gateway down and rebuilds it against the
// durable route table — the "gateway restart" chaos op. The epoch must
// survive (SeedStatic skips already-rostered members), and every
// session whose residency matches its rendezvous home must keep
// resolving; sessions that only a lost route entry could find are
// gone, counted, and fail closed.
func (h *harness) restartGateway() error {
	prevEpoch := h.gw.Epoch()
	h.gw.Close()
	gw, err := h.newGateway()
	if err != nil {
		return err
	}
	h.gw = gw
	h.gwc.swap(gw.Routes())
	h.restarts++
	if gw.Epoch() != prevEpoch {
		h.restartEpochPreserved = false
	}
	h.syncRing()

	for i := range h.users {
		u := &h.users[i]
		if !u.alive || u.paused {
			continue
		}
		if u.live {
			res := h.gwc.do(http.MethodGet, "/api/v1/sessions/"+u.sid+"/state", nil, "")
			sidHdr, m := parseETag(res.Header.Get("ETag"))
			io.Copy(io.Discard, res.Body)
			res.Body.Close()
			switch {
			case res.StatusCode == http.StatusOK && sidHdr == u.sid:
				if m != u.mut {
					h.etagBreaks++
				}
			case res.StatusCode == http.StatusNotFound:
				h.restartLost++
				h.loseUser(u, causeFailure)
			default:
				h.otherErrors++
			}
			continue
		}
		if owner := cluster.Owner(h.ringLst, u.sid); owner != u.owner {
			// The rebuilt gateway would re-home this sid by hash; the
			// session lives elsewhere, so its next request reads 404.
			h.restartLost++
			h.loseUser(u, causeFailure)
		}
	}
	return nil
}

// drainBody discards and closes a buffered response body.
func drainBody(res *http.Response) {
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
}
