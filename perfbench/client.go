package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/serve"
	"vexus/internal/telemetry"
)

// op is one request as the client saw it.
type op struct {
	kind  string // create, explore, backtrack, focus, brush, clear, bookmark, unlearn, state, delete, ingest
	start time.Time
	dur   time.Duration
	ok    bool
	bytes int
	// Explore quality from the response (explore only).
	metrics *action.Metrics
	// group is the clicked group (explore only).
	group int
	// rows committed (ingest only).
	rows int
	// cond marks a conditional state GET; notMod its 304 answer.
	cond, notMod bool
	// round is the client's round when the operation was sent.
	round int
}

// session is the client's view of one server session.
type session struct {
	sid   string
	muts  uint64 // mutation counter the last response reported
	shown []int  // current display, in display order
	log   []action.Action
	sse   *sseStream
	// acked maps each action response's mutation counter to the time
	// the response arrived (SSE lag).
	acked map[uint64]time.Time
}

// client is one closed-loop load generator: one goroutine, one
// keep-alive connection for requests and one for its open stream.
type client struct {
	base   string
	hc     *http.Client
	stream *http.Client
	id     int
	traced bool
	seq    int
	// round tags the operations recorded from now on (see roundsOf).
	round int
	ops   []op
	fails []string
	// onTrace sees each traced action request (of n actions) before
	// the session's log takes them.
	onTrace func(trace string, sess *session, n int)
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout: 60 * time.Second},
		stream: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
	}
}

func (c *client) close() {
	c.hc.CloseIdleConnections()
	c.stream.CloseIdleConnections()
}

func (c *client) record(o op) {
	o.round = c.round
	c.ops = append(c.ops, o)
}

func (c *client) fail(format string, args ...any) {
	if len(c.fails) < 20 {
		c.fails = append(c.fails, fmt.Sprintf(format, args...))
	}
}

// do issues one request, stamping a trace id when tracing.
func (c *client) do(method, path string, body []byte, hdr map[string]string) (*http.Response, []byte, string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, nil, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	trace := ""
	if c.traced {
		c.seq++
		trace = fmt.Sprintf("b%d-%d", c.id, c.seq)
		req.Header.Set(telemetry.TraceHeader, trace)
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, trace, err
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	return res, raw, trace, err
}

func etagOf(sid string, n uint64) string { return `"` + sid + "." + strconv.FormatUint(n, 10) + `"` }

// stateBody is the part of the server's state document the client reads.
type stateBody struct {
	Session string `json:"session"`
	Shown   []struct {
		ID int `json:"id"`
	} `json:"shown"`
}

func (b stateBody) ids() []int {
	out := make([]int, len(b.Shown))
	for i, g := range b.Shown {
		out[i] = g.ID
	}
	return out
}

// create opens a session; its ETag must be "<sid>.1" (the Start the
// server applies on creation).
func (c *client) create() (*session, error) {
	t0 := time.Now()
	res, raw, _, err := c.do(http.MethodPost, "/api/v1/sessions", nil, nil)
	o := op{kind: "create", start: t0, dur: time.Since(t0), bytes: len(raw)}
	defer func() { c.record(o) }()
	if err != nil {
		c.fail("create: %v", err)
		return nil, err
	}
	if res.StatusCode != http.StatusCreated {
		c.fail("create: status %d", res.StatusCode)
		return nil, fmt.Errorf("create: status %d", res.StatusCode)
	}
	var b stateBody
	if err := json.Unmarshal(raw, &b); err != nil {
		c.fail("create: %v", err)
		return nil, err
	}
	if got := res.Header.Get("ETag"); got != etagOf(b.Session, 1) {
		c.fail("create: ETag %s, want %s", got, etagOf(b.Session, 1))
		return nil, fmt.Errorf("create: bad ETag %s", got)
	}
	o.ok = true
	return &session{sid: b.Session, muts: 1, shown: b.ids(),
		log: []action.Action{{Op: action.Start}}, acked: map[uint64]time.Time{}}, nil
}

type batchBody struct {
	ETag    string          `json:"etag"`
	Applied int             `json:"applied"`
	Results []action.Result `json:"results"`
}

// act posts one action batch and checks that the ETag advanced by
// exactly one per action; the client's display follows the diffs.
func (c *client) act(s *session, kind string, batch []action.Action) bool {
	body, err := action.EncodeLog(batch)
	if err != nil {
		c.fail("%s: encode: %v", kind, err)
		c.record(op{kind: kind})
		return false
	}
	t0 := time.Now()
	res, raw, trace, err := c.do(http.MethodPost, "/api/v1/sessions/"+s.sid+"/actions", body, nil)
	now := time.Now()
	o := op{kind: kind, start: t0, dur: now.Sub(t0), bytes: len(raw)}
	defer func() { c.record(o) }()
	if err != nil {
		c.fail("%s: %v", kind, err)
		return false
	}
	if res.StatusCode != http.StatusOK {
		c.fail("%s %v: status %d: %s", kind, batch, res.StatusCode, strings.TrimSpace(string(raw)))
		return false
	}
	var b batchBody
	if err := json.Unmarshal(raw, &b); err != nil {
		c.fail("%s: %v", kind, err)
		return false
	}
	n := len(batch)
	want := etagOf(s.sid, s.muts+uint64(n))
	if res.Header.Get("ETag") != want || b.ETag != want || b.Applied != n || len(b.Results) != n {
		c.fail("%s: ETag %s (body %s), want %s", kind, res.Header.Get("ETag"), b.ETag, want)
		return false
	}
	if c.onTrace != nil && trace != "" {
		c.onTrace(trace, s, n)
	}
	for _, r := range b.Results {
		s.muts++
		s.acked[s.muts] = now
		s.shown = applyShownDiff(s.shown, r.Diff)
	}
	s.log = append(s.log, batch...)
	if batch[0].Op == action.Explore {
		o.metrics = b.Results[0].Metrics
		o.group = batch[0].Group
	}
	o.ok = true
	return true
}

// applyShownDiff moves a display by one diff: kept groups in their
// order, then the added ones in the order the diff lists them.
func applyShownDiff(shown []int, d action.Diff) []int {
	if len(d.ShownAdded) == 0 && len(d.ShownRemoved) == 0 {
		return shown
	}
	gone := make(map[int]bool, len(d.ShownRemoved))
	for _, id := range d.ShownRemoved {
		gone[id] = true
	}
	out := make([]int, 0, len(shown)+len(d.ShownAdded))
	for _, id := range shown {
		if !gone[id] {
			out = append(out, id)
		}
	}
	return append(out, d.ShownAdded...)
}

// state reads the session state, conditionally when ifNoneMatch is
// set. A 304 is correct only when that validator is still current; a
// 200 must carry the current one.
func (c *client) state(s *session, ifNoneMatch string) (stateBody, bool) {
	var hdr map[string]string
	if ifNoneMatch != "" {
		hdr = map[string]string{"If-None-Match": ifNoneMatch}
	}
	t0 := time.Now()
	res, raw, _, err := c.do(http.MethodGet, "/api/v1/sessions/"+s.sid+"/state", nil, hdr)
	o := op{kind: "state", start: t0, dur: time.Since(t0), bytes: len(raw), cond: ifNoneMatch != ""}
	defer func() { c.record(o) }()
	var b stateBody
	if err != nil {
		c.fail("state: %v", err)
		return b, false
	}
	cur := etagOf(s.sid, s.muts)
	switch res.StatusCode {
	case http.StatusNotModified:
		o.notMod = true
		if ifNoneMatch != cur {
			c.fail("state: 304 for validator %s, current %s", ifNoneMatch, cur)
			return b, false
		}
	case http.StatusOK:
		if ifNoneMatch == cur {
			c.fail("state: 200 for the current validator %s", cur)
			return b, false
		}
		if res.Header.Get("ETag") != cur {
			c.fail("state: ETag %s, want %s", res.Header.Get("ETag"), cur)
			return b, false
		}
		if err := json.Unmarshal(raw, &b); err != nil {
			c.fail("state: %v", err)
			return b, false
		}
	default:
		c.fail("state: status %d", res.StatusCode)
		return b, false
	}
	o.ok = true
	return b, true
}

func (c *client) del(s *session) bool {
	t0 := time.Now()
	res, _, _, err := c.do(http.MethodDelete, "/api/v1/sessions/"+s.sid, nil, nil)
	o := op{kind: "delete", start: t0, dur: time.Since(t0)}
	defer func() { c.record(o) }()
	if err != nil || res.StatusCode != http.StatusNoContent {
		c.fail("delete %s: %v %v", s.sid, err, res)
		return false
	}
	o.ok = true
	return true
}

// ingest posts one sequenced batch and checks the committed version.
func (c *client) ingest(b core.IngestBatch) (serve.IngestResult, bool) {
	var ir serve.IngestResult
	body, err := json.Marshal(b)
	if err != nil {
		c.fail("ingest: %v", err)
		return ir, false
	}
	t0 := time.Now()
	res, raw, _, err := c.do(http.MethodPost, "/api/v1/datasets/default/ingest", body, nil)
	o := op{kind: "ingest", start: t0, dur: time.Since(t0), rows: len(b.Users) + len(b.Actions)}
	defer func() { c.record(o) }()
	if err != nil {
		c.fail("ingest: %v", err)
		return ir, false
	}
	if res.StatusCode != http.StatusOK {
		c.fail("ingest seq %d: status %d: %s", b.Seq, res.StatusCode, strings.TrimSpace(string(raw)))
		return ir, false
	}
	if err := json.Unmarshal(raw, &ir); err != nil {
		c.fail("ingest: %v", err)
		return ir, false
	}
	if ir.Seq != b.Seq || ir.EngineVersion != b.Seq+1 || ir.AlreadyApplied {
		c.fail("ingest: seq %d gave %+v", b.Seq, ir)
		return ir, false
	}
	o.ok = true
	return ir, true
}

// ---------------------------------------------------------------------------
// SSE subscriber.

type sseEvent struct {
	id   int64 // -1 when the frame has no id (notices)
	name string
	at   time.Time
}

type sseStream struct {
	cancel context.CancelFunc
	done   chan struct{}
	// arrived is signalled (without blocking) after every event.
	arrived chan struct{}
	mu      sync.Mutex
	events  []sseEvent
	lastID  int64
	err     error
}

// waitFor waits until the event with the given id (or a later one) has
// arrived, reporting false if it does not within the timeout.
func (st *sseStream) waitFor(id uint64, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		st.mu.Lock()
		last := st.lastID
		st.mu.Unlock()
		if last >= int64(id) {
			return true
		}
		select {
		case <-st.arrived:
		case <-st.done:
			return false
		case <-deadline.C:
			return false
		}
	}
}

// subscribe attaches to the session's event stream and returns once
// the server has accepted it, so no later action can be missed.
func (c *client) subscribe(s *session) error {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/sessions/"+s.sid+"/events", nil)
	if err != nil {
		cancel()
		return err
	}
	res, err := c.stream.Do(req)
	if err != nil {
		cancel()
		return err
	}
	if res.StatusCode != http.StatusOK {
		res.Body.Close()
		cancel()
		return fmt.Errorf("events: status %d", res.StatusCode)
	}
	st := &sseStream{cancel: cancel, done: make(chan struct{}), arrived: make(chan struct{}, 1), lastID: -1}
	s.sse = st
	go func() {
		defer close(st.done)
		defer res.Body.Close()
		sc := bufio.NewScanner(res.Body)
		sc.Buffer(make([]byte, 64<<10), 8<<20)
		ev := sseEvent{id: -1}
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if ev.name != "" {
					ev.at = time.Now()
					st.mu.Lock()
					st.events = append(st.events, ev)
					if ev.id > st.lastID {
						st.lastID = ev.id
					}
					st.mu.Unlock()
					select {
					case st.arrived <- struct{}{}:
					default:
					}
				}
				ev = sseEvent{id: -1}
			case strings.HasPrefix(line, "id: "):
				ev.id, _ = strconv.ParseInt(line[4:], 10, 64)
			case strings.HasPrefix(line, "event: "):
				ev.name = line[7:]
			}
		}
		if err := sc.Err(); err != nil && ctx.Err() == nil {
			st.mu.Lock()
			st.err = err
			st.mu.Unlock()
		}
	}()
	return nil
}

// finish waits for the stream to end after the session was deleted (the
// server closes it with a terminal event) and cancels it if it does not.
func (st *sseStream) finish(wait time.Duration) {
	select {
	case <-st.done:
	case <-time.After(wait):
	}
	st.cancel()
	<-st.done
}

// checkStream verifies a finished stream against the session's
// acknowledged actions: diff event ids continue the mutation counter
// one by one (a resync restarts it at its own id), every acknowledged
// counter appears or is covered by a resync, and the stream ends with
// the terminal closed event. It returns the lag of each acknowledged
// action and the number of resyncs after the first.
func checkStream(s *session, final uint64, wantClosed bool) (lags []float64, resyncs int, err error) {
	st := s.sse
	st.mu.Lock()
	events := st.events
	serr := st.err
	st.mu.Unlock()
	if serr != nil {
		return nil, 0, serr
	}
	seen := map[uint64]time.Time{}
	var last int64 = -1
	closed := false
	for i, ev := range events {
		switch ev.name {
		case "resync":
			if i > 0 {
				resyncs++
			}
			last = ev.id
		case "diff":
			if last >= 0 && ev.id != last+1 {
				return nil, 0, fmt.Errorf("stream %s: event id %d after %d", s.sid, ev.id, last)
			}
			last = ev.id
			seen[uint64(ev.id)] = ev.at
		case "closed":
			closed = true
		}
	}
	if wantClosed && !closed {
		return nil, 0, fmt.Errorf("stream %s: no closed event", s.sid)
	}
	if last != int64(final) {
		return nil, 0, fmt.Errorf("stream %s: last id %d, session at %d", s.sid, last, final)
	}
	for n, at := range s.acked {
		ev, ok := seen[n]
		if !ok {
			if resyncs == 0 {
				return nil, 0, fmt.Errorf("stream %s: no event for mutation %d", s.sid, n)
			}
			continue
		}
		lag := ev.Sub(at).Seconds() * 1000
		if lag < 0 {
			lag = 0
		}
		lags = append(lags, lag)
	}
	return lags, resyncs, nil
}
