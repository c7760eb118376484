package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/serve"
)

// loop is one closed-loop client's share of a mix.
type loop func(b *bench, c *client, cid, off int, deadline time.Time, out *outcome)

// Workloads. All are closed loops: an analyst clicks a group from the
// display the previous click returned. Each has one client: on a
// two-core machine a second one leaves the stack's own goroutines and
// the collector no core, and the run then measures the scheduler.
var workloads = map[string]struct {
	cluster bool
	clients int
	authors int
	mix     loop
	// trails analyst sessions are generated from stream family fam
	// and cycled through.
	fam    uint64
	trails int
	// round is how many sessions make one round of the window (0: the
	// window is one round). The explore pool is one round, so every
	// round sends the same requests.
	round int
}{
	"explore": {cluster: true, clients: 1, authors: defaultAuthors, mix: (*bench).exploreLoop, fam: famExplore, trails: 40, round: 40},
	"budget":  {cluster: false, clients: 1, authors: e4Authors, mix: (*bench).budgetLoop, fam: famBudget, trails: 48},
}

const (
	setupRuns = 5
	warmUp    = 4 * time.Second
	// replaySample is how many sessions the replay check re-runs.
	replaySample = 3
	// probeBrowse and probeBatches size the probes that run the
	// browse traffic and the ingests no workload's mix sends. No
	// end-to-end metric comes from the ingests (see README.md); two
	// batches exercise sequencing for the ingest check.
	probeBrowse  = 2 * time.Second
	probeBatches = 2
)

// budgetStep is one explore of the budget workload: the clicked group
// and the display it produced.
type budgetStep struct {
	focal int
	shown []int
}

// outcome is what one phase (warm-up, window, probe) observed.
type outcome struct {
	ops []op
	// rounds splits the phase's operations into its complete rounds;
	// done is how many rounds a client completed.
	rounds   []round
	done     int
	lags     []float64
	resyncs  int
	steps    []budgetStep
	gcCycles float64
	gcPause  float64
}

func (o *outcome) merge(p *outcome) {
	o.ops = append(o.ops, p.ops...)
	o.rounds = append(o.rounds, p.rounds...)
	o.gcCycles += p.gcCycles
	o.gcPause += p.gcPause
	o.lags = append(o.lags, p.lags...)
	o.resyncs += p.resyncs
	o.steps = append(o.steps, p.steps...)
}

// bench is one benchmark process: one workload on one stack.
type bench struct {
	name      string
	seed      uint64
	st        *stack
	rec       *recorder
	clients   int
	round     int
	clientSeq int
	// open holds the sessions each client has open.
	open      [][]*session
	traced    bool
	trails    []trail
	nextBatch int
	// tracedActs maps a traced request to its session and the log
	// position of its action, for the in-process layer replay.
	mu         sync.Mutex
	tracedActs map[string]tracedAct
	// attempted/failed count operations and output checks.
	attempted, failed int
	fails             []string
}

// tracedAct is a traced request's batch: n actions from log position
// at.
type tracedAct struct {
	sess  *session
	at, n int
}

func (b *bench) check(ok bool, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
		if len(b.fails) < 20 {
			b.fails = append(b.fails, fmt.Sprintf(format, args...))
		}
	}
}

// account folds a phase's operations into the success counts.
func (b *bench) account(o *outcome, c *client) {
	for _, x := range c.ops {
		b.attempted++
		if !x.ok {
			b.failed++
		}
	}
	for _, f := range c.fails {
		if len(b.fails) < 20 {
			b.fails = append(b.fails, f)
		}
	}
	o.ops = append(o.ops, c.ops...)
}

// newClient makes a client with an id no other client of the run has,
// so trace ids never repeat across phases.
func (b *bench) newClient() *client {
	c := newClient(b.st.front)
	b.mu.Lock()
	b.clientSeq++
	c.id = b.clientSeq
	b.mu.Unlock()
	c.traced = b.traced
	if b.traced {
		c.onTrace = func(trace string, s *session, n int) {
			b.mu.Lock()
			b.tracedActs[trace] = tracedAct{sess: s, at: len(s.log), n: n}
			b.mu.Unlock()
		}
	}
	return c
}

// tracedRun runs f with spans recorded and trace ids stamped.
func (b *bench) tracedRun(f func() *outcome) *outcome {
	b.traced = true
	b.rec.on.Store(true)
	defer func() {
		b.traced = false
		b.rec.on.Store(false)
	}()
	return f()
}

// phase runs the workload's mix for dur.
func (b *bench) phase(off int, dur time.Duration) *outcome {
	w := workloads[b.name]
	return b.run(w.mix, w.clients, off, dur)
}

// run drives mix on n clients until dur has passed, then lets each
// finish its request in flight.
func (b *bench) run(mix loop, n, off int, dur time.Duration) *outcome {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	deadline := t0.Add(dur)
	outs := make([]*outcome, n)
	clients := make([]*client, n)
	var wg sync.WaitGroup
	for i := range outs {
		outs[i] = &outcome{}
		clients[i] = b.newClient()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mix(b, clients[i], i, off, deadline, outs[i])
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	total := &outcome{
		gcCycles: float64(after.NumGC - before.NumGC),
		gcPause:  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6}
	done := outs[0].done
	for i, o := range outs {
		done = min(done, o.done)
		total.merge(o)
		b.account(total, clients[i])
		clients[i].close()
	}
	total.rounds = roundsOf(total.ops, done, elapsed)
	return total
}

// round is one round's operations and its length in seconds.
type round struct {
	ops  []op
	secs float64
}

// roundsOf groups ops into the first done rounds, each as long as its
// first request start to its last answer. With no complete round the
// whole phase of elapsed seconds is one round. Operations of round -1
// (the deletes between rounds) belong to none.
func roundsOf(ops []op, done int, elapsed float64) []round {
	if done == 0 {
		var in []op
		for _, x := range ops {
			if x.round >= 0 {
				in = append(in, x)
			}
		}
		return []round{{ops: in, secs: elapsed}}
	}
	rs := make([]round, done)
	first := make([]time.Time, done)
	last := make([]time.Time, done)
	for _, x := range ops {
		r := x.round
		if r < 0 || r >= done {
			continue
		}
		rs[r].ops = append(rs[r].ops, x)
		if first[r].IsZero() || x.start.Before(first[r]) {
			first[r] = x.start
		}
		if end := x.start.Add(x.dur); end.After(last[r]) {
			last[r] = end
		}
	}
	for r := range rs {
		rs[r].secs = last[r].Sub(first[r]).Seconds()
	}
	return rs
}

// runTrail sends a trail's batches on s until the deadline, noting
// each explore's display when steps is set. It reports whether every
// batch was sent and answered.
func (b *bench) runTrail(c *client, s *session, t trail, deadline time.Time, steps *[]budgetStep) bool {
	for _, batch := range t {
		if !time.Now().Before(deadline) {
			return false
		}
		if !c.act(s, "explore", batch) {
			return false
		}
		if steps != nil {
			*steps = append(*steps, budgetStep{focal: batch[0].Group, shown: append([]int(nil), s.shown...)})
		}
	}
	return true
}

// exploreLoop: each session replays one analyst trail from the pool,
// then the client opens the next session. Every round sessions start
// a new round; a round counts as done once its last trail is. Between
// rounds, untimed, the client deletes all but the last round's
// sessions, so every round runs against as many live sessions and the
// heap does not grow with the number of rounds a run gets through.
func (b *bench) exploreLoop(c *client, cid, off int, deadline time.Time, out *outcome) {
	for i := 0; ; i++ {
		if b.round > 0 && i%b.round == 0 {
			out.done = i / b.round
			b.closeOld(c, cid, b.round)
			c.round = i / b.round
		}
		if !time.Now().Before(deadline) {
			return
		}
		s, err := c.create()
		if err != nil {
			return
		}
		b.open[cid] = append(b.open[cid], s)
		t := b.trails[(off+i*b.clients+cid)%len(b.trails)]
		if !b.runTrail(c, s, t, deadline, nil) {
			return
		}
	}
}

// browseLoop: sessions that read, focus, brush, bookmark and unlearn
// while holding an event stream, then delete themselves.
func (b *bench) browseLoop(c *client, cid, off int, deadline time.Time, out *outcome) {
	for i := 0; time.Now().Before(deadline); i++ {
		s, err := c.create()
		if err != nil {
			return
		}
		err = c.subscribe(s)
		b.check(err == nil, "subscribe %s: %v", s.sid, err)
		if err != nil {
			return
		}
		for _, st := range browsePlan(b.seed, cid, off+i) {
			if !time.Now().Before(deadline) {
				break
			}
			ok := true
			switch st.kind {
			case "state-cond":
				_, ok = c.state(s, etagOf(s.sid, s.muts))
			case "state-stale":
				if s.muts > 1 {
					_, ok = c.state(s, etagOf(s.sid, s.muts-1))
				} else {
					_, ok = c.state(s, "")
				}
			case "state":
				_, ok = c.state(s, "")
			default:
				ok = c.act(s, st.kind, []action.Action{st.action(s.shown)})
			}
			if !ok {
				break
			}
		}
		b.endStream(c, s, out)
	}
}

// endStream waits until the stream has delivered the session's last
// acknowledged action, deletes the session and checks what the stream
// saw. (A delete ends the stream; diffs still queued behind it are not
// owed to a client whose session is gone.)
func (b *bench) endStream(c *client, s *session, out *outcome) {
	b.check(s.sse.waitFor(s.muts, 5*time.Second), "stream %s: event %d did not arrive", s.sid, s.muts)
	deleted := c.del(s)
	s.sse.finish(3 * time.Second)
	lags, resyncs, err := checkStream(s, s.muts, deleted)
	b.check(err == nil, "%v", err)
	out.lags = append(out.lags, lags...)
	out.resyncs += resyncs
}

// budgetLoop: sessions replay the budget trails in turn under the
// time limit, noting every explore's display for the budget check.
func (b *bench) budgetLoop(c *client, cid, off int, deadline time.Time, out *outcome) {
	for i := 0; time.Now().Before(deadline); i++ {
		s, err := c.create()
		if err != nil {
			return
		}
		b.open[cid] = append(b.open[cid], s)
		if !b.runTrail(c, s, b.trails[(off+i)%len(b.trails)], deadline, &out.steps) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Probes: short fixed runs, after the window and alone, of traffic no
// workload's window carries.

// browseProbe runs browse sessions on one client: state reads (most
// conditional), focus, brush, bookmark, unlearn and backtrack with an
// event stream open, then delete. Nothing in it is timed end to end; it
// exercises the stream, the conditional reads and core.Focus, which
// the traced run reports per layer, and their output checks.
func (b *bench) browseProbe(off int) *outcome {
	return b.run((*bench).browseLoop, 1, off, probeBrowse)
}

// ingestProbe posts n ingest batches, which no workload's mix sends:
// they rebuild every shard's engine and would swamp the window.
func (b *bench) ingestProbe(n int) *outcome {
	o := &outcome{}
	c := b.newClient()
	for i := 0; i < n; i++ {
		// Each batch starts on a collected heap, so a collection the
		// previous rebuild left due does not land in this one.
		runtime.GC()
		if _, ok := c.ingest(ingestBatch(b.seed, b.nextBatch)); !ok {
			break
		}
		b.nextBatch++
	}
	b.account(o, c)
	c.close()
	return o
}

// closeOld deletes client cid's open sessions but the last keep. The
// deletes belong to no round.
func (b *bench) closeOld(c *client, cid, keep int) {
	l := b.open[cid]
	if len(l) <= keep {
		return
	}
	c.round = -1
	for _, s := range l[:len(l)-keep] {
		c.del(s)
	}
	b.open[cid] = append([]*session(nil), l[len(l)-keep:]...)
}

// closeOpen deletes every session the windows left open, so the
// probes after it run on a stack whose size does not depend on how
// many sessions the window got through.
func (b *bench) closeOpen() {
	c := b.newClient()
	for _, l := range b.open {
		for _, s := range l {
			c.del(s)
		}
	}
	b.account(&outcome{}, c)
	c.close()
	b.open = make([][]*session, b.clients)
}

// ---------------------------------------------------------------------------
// Output checks that run after the window.

// checkReplay re-runs a seeded sample of the open explore sessions
// in-process with action.Replay: shown ids must be byte-identical to
// the server's and the ETag must count every action. Sessions of an
// optimizer under a time limit (budget) are not replayable.
func (b *bench) checkReplay() {
	if b.st.gcfg.TimeLimit != 0 {
		return
	}
	var sessions []*session
	for _, l := range b.open {
		sessions = append(sessions, l...)
	}
	if len(sessions) == 0 {
		return
	}
	c := b.newClient()
	defer c.close()
	r := stream(b.seed, famSample, 0, uint64(len(sessions)))
	n := replaySample
	if n > len(sessions) {
		n = len(sessions)
	}
	for _, i := range r.SampleWithoutReplacement(len(sessions), n) {
		s := sessions[i]
		body, ok := c.state(s, "")
		b.check(ok, "replay %s: state read failed: %v", s.sid, c.fails)
		if !ok {
			continue
		}
		rs, err := action.Replay(b.st.eng, b.st.gcfg, s.log)
		b.check(err == nil, "replay %s: %v", s.sid, err)
		if err != nil {
			continue
		}
		want, _ := json.Marshal(rs.Sess.Shown())
		got, _ := json.Marshal(body.ids())
		b.check(string(want) == string(got) && rs.Mutations == s.muts,
			"replay %s: server shows %s at %d, replay %s at %d", s.sid, got, s.muts, want, rs.Mutations)
	}
}

// checkBudget: every step shows k distinct groups, each at or above
// the similarity bound to the clicked group.
func (b *bench) checkBudget(steps []budgetStep) {
	space := b.st.eng.Space
	for _, st := range steps {
		ok := len(st.shown) == b.st.gcfg.K
		seen := map[int]bool{}
		for _, id := range st.shown {
			if seen[id] || space.Group(id).Jaccard(space.Group(st.focal)) < b.st.gcfg.MinSimilarity {
				ok = false
			}
			seen[id] = true
		}
		b.check(ok, "budget: focal %d showed %v", st.focal, st.shown)
	}
}

// checkIngest: every server reports the same engine version, one past
// the batches committed, and its group count equals core.Build on the
// dataset with every batch appended.
func (b *bench) checkIngest() {
	if b.nextBatch == 0 {
		return
	}
	urls := b.st.shards
	if len(urls) == 0 {
		urls = []string{b.st.front}
	}
	d := b.st.data
	for i := 0; i < b.nextBatch; i++ {
		bt := ingestBatch(b.seed, i)
		var err error
		if d, err = d.Append(bt.Users, bt.Actions); err != nil {
			b.check(false, "ingest check: append batch %d: %v", i, err)
			return
		}
	}
	ref, err := core.Build(d, b.st.pcfg)
	if err != nil {
		b.check(false, "ingest check: build: %v", err)
		return
	}
	for _, u := range urls {
		var body struct {
			Datasets []serve.DatasetStatus `json:"datasets"`
		}
		res, err := http.Get(u + "/api/datasets")
		if err == nil {
			err = json.NewDecoder(res.Body).Decode(&body)
			res.Body.Close()
		}
		ok := err == nil && len(body.Datasets) == 1 &&
			body.Datasets[0].Version == uint64(b.nextBatch+1) && body.Datasets[0].Groups == ref.Space.Len()
		b.check(ok, "ingest check %s: %v %+v, want version %d groups %d", u, err, body.Datasets, b.nextBatch+1, ref.Space.Len())
	}
}
