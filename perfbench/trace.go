package main

import (
	"sort"
	"time"

	"vexus/internal/action"
	"vexus/internal/greedy"
	"vexus/internal/groups"
	"vexus/internal/index"
	"vexus/internal/mining"
	"vexus/internal/mining/lcm"
)

// The traced run's per-layer numbers. Spans at the gateway and shard
// boundaries come from the handler wrappers in stack.go; the layers
// below serve are timed by replaying each traced step in-process on
// identical inputs, one layer at a time: action.ApplyAll, then the
// core.Session call it makes, then greedy.Optimizer.SelectNext, then
// index.Index.Neighbors. A layer's self time is its time minus the
// next deeper call's.

// The in-process replay is bounded (traced steps per action kind, and
// wall clock), so a traced run stays well inside its time limit on
// every workload.
const (
	replaySteps  = 100
	replayBudget = 10 * time.Second
)

// samples is a bag of named per-layer observations.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// replayLayers re-runs the traced sessions' action logs on two mirror
// sessions over the same engine. Mirror 1 takes each traced action
// through action.ApplyAll; mirror 2 takes the same action at the core
// layer (and, for explores, greedy and index on the identical focal
// group and feedback profile). It returns the ApplyAll time of every
// traced request, keyed by trace id.
func (b *bench) replayLayers(ls samples) map[string]float64 {
	eng, gcfg := b.st.eng, b.st.gcfg
	opt := greedy.New(eng.Space, eng.Index)
	pool := gcfg.CandidatePool
	if pool <= 0 {
		pool = 4096
	}
	type req struct {
		trace string
		n     int
	}
	bySess := map[*session]map[int]req{}
	for trace, ta := range b.tracedActs {
		if bySess[ta.sess] == nil {
			bySess[ta.sess] = map[int]req{}
		}
		bySess[ta.sess][ta.at] = req{trace, ta.n}
	}
	sessions := make([]*session, 0, len(bySess))
	for s := range bySess {
		sessions = append(sessions, s)
	}
	// Sessions with fewer explores first: they are cheap to replay, so
	// the browse probe's actions are sampled before the wall-clock cap.
	explores := func(s *session) int {
		n := 0
		for _, a := range s.log {
			if a.Op == action.Explore {
				n++
			}
		}
		return n
	}
	sort.Slice(sessions, func(i, j int) bool {
		ei, ej := explores(sessions[i]), explores(sessions[j])
		if ei != ej {
			return ei < ej
		}
		return sessions[i].sid < sessions[j].sid
	})

	// A traced request is timed action by action; its kind (and its
	// cap) is that of its first action.
	applyByTrace := map[string]float64{}
	start := time.Now()
	steps := map[action.Kind]int{}
	for _, s := range sessions {
		if time.Since(start) > replayBudget {
			break
		}
		// Replay only sessions that still have a traced request of a
		// kind below its cap, and only up to their last one.
		end := 0
		for at, r := range bySess[s] {
			if at+r.n > end && steps[s.log[at].Op] < replaySteps {
				end = at + r.n
			}
		}
		m1, m2 := action.New(eng, gcfg), action.New(eng, gcfg)
		for i := 0; i < end; {
			r, traced := bySess[s][i]
			if !traced || steps[s.log[i].Op] >= replaySteps {
				if action.ApplyQuiet(m1, s.log[i]) != nil || action.ApplyQuiet(m2, s.log[i]) != nil {
					b.check(false, "layer replay %s: action %d %v failed", s.sid, i, s.log[i])
					break
				}
				i++
				continue
			}
			steps[s.log[i].Op]++
			total, ok := 0.0, true
			for _, a := range s.log[i : i+r.n] {
				coreMS, cok := b.coreCall(m2, a, opt, pool, ls)
				t0 := time.Now()
				_, err := action.ApplyAll(m1, []action.Action{a})
				ta := ms(time.Since(t0))
				if !cok || err != nil {
					b.check(false, "layer replay %s: action %d %v: %v", s.sid, i, a, err)
					ok = false
					break
				}
				ls.add("action.apply_ms."+string(a.Op), ta)
				ls.add("action.self_ms", ta-coreMS)
				total += ta
			}
			if !ok {
				break
			}
			applyByTrace[r.trace] = total
			i += r.n
		}
	}
	return applyByTrace
}

// coreCall applies a at the core layer on m, timing it (and the layers
// under an explore), and keeps m's open focus view in step.
func (b *bench) coreCall(m *action.Session, a action.Action, opt *greedy.Optimizer, pool int, ls samples) (float64, bool) {
	eng, gcfg := b.st.eng, b.st.gcfg
	var err error
	switch a.Op {
	case action.Explore:
		if a.Group < 0 || a.Group >= eng.Space.Len() {
			return 0, false
		}
		g := eng.Space.Group(a.Group)
		fb := m.Sess.Feedback().Snapshot()
		fb.Reinforce(g, 1)
		t0 := time.Now()
		eng.Index.Neighbors(a.Group, pool)
		tn := ms(time.Since(t0))
		t0 = time.Now()
		sel, serr := opt.SelectNext(g, fb, gcfg)
		tg := ms(time.Since(t0))
		t0 = time.Now()
		_, err = m.Sess.Explore(a.Group)
		tc := ms(time.Since(t0))
		m.Focus = nil
		if serr != nil || err != nil {
			return 0, false
		}
		overlap := eng.Index.OverlapCount(a.Group)
		ls.add("index.neighbors_ms", tn)
		ls.add("index.prefix_hit", boolf(eng.Index.MaterializedLen(a.Group) >= min(pool, overlap)))
		ls.add("index.pool_capped", boolf(overlap >= pool))
		ls.add("greedy.select_ms", tg)
		ls.add("greedy.self_ms", tg-tn)
		ls.add("greedy.candidates", float64(sel.Candidates))
		ls.add("greedy.swap_rounds", float64(sel.SwapRounds))
		ls.add("greedy.deadline_hit", boolf(sel.DeadlineHit))
		ls.add("greedy.filled_by_similarity", float64(sel.FilledBySimilarity))
		ls.add("core.explore_self_ms", tc-tg)
		return tc, true
	case action.Focus:
		t0 := time.Now()
		fv, ferr := m.Sess.Focus(a.Group, a.Class)
		tc := ms(time.Since(t0))
		if ferr != nil {
			return 0, false
		}
		m.Focus = fv
		ls.add("core.focus_ms", tc)
		return tc, true
	}
	t0 := time.Now()
	switch a.Op {
	case action.Backtrack:
		err = m.Sess.Backtrack(a.Step)
		m.Focus = nil
	case action.Brush:
		if m.Focus == nil {
			return 0, false
		}
		if len(a.Values) == 0 {
			err = m.Focus.ClearBrush(a.Attr)
		} else {
			err = m.Focus.Brush(a.Attr, a.Values...)
		}
	case action.BookmarkGroup:
		err = m.Sess.BookmarkGroup(a.Group)
	case action.Unlearn:
		err = m.Sess.Unlearn(a.Field, a.Value)
	default:
		err = action.ApplyQuiet(m, a)
	}
	return ms(time.Since(t0)), err == nil
}

func boolf(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// buildStages times the offline pipeline's stages one by one, exactly
// as core.Build runs them.
func buildStages(st *stack, ls samples) {
	cfg := st.pcfg.Normalized()
	d := st.data
	t0 := time.Now()
	tx, err := mining.Encode(d, cfg.Encode)
	if err != nil {
		return
	}
	ls.add("core.build.encode_s", time.Since(t0).Seconds())
	miner := lcm.New(mining.Options{
		MinSupport: cfg.EffectiveMinSupport(d.NumUsers()),
		MaxLen:     cfg.MaxLen,
		MaxGroups:  cfg.MaxGroups,
	})
	t0 = time.Now()
	gs, err := mining.MineParallel(miner, tx, mining.ParallelOptions{Workers: cfg.Workers})
	if err != nil {
		return
	}
	ls.add("core.build.mine_s", time.Since(t0).Seconds())
	t0 = time.Now()
	space, err := groups.NewSpaceParallel(d.NumUsers(), tx.Vocab, gs, cfg.Workers)
	if err != nil {
		return
	}
	ls.add("core.build.space_s", time.Since(t0).Seconds())
	t0 = time.Now()
	if _, err := index.BuildParallel(space, cfg.IndexFraction, cfg.Workers); err != nil {
		return
	}
	ls.add("core.build.index_s", time.Since(t0).Seconds())
}

// ingestReplay times Engine.Ingest on the first n batches the run
// posted, each against the version it was posted to.
func (b *bench) ingestReplay(n int, ls samples) {
	eng := b.st.eng
	for i := 0; i < n && i < b.nextBatch; i++ {
		t0 := time.Now()
		next, err := eng.Ingest(ingestBatch(b.seed, i))
		if err != nil {
			b.check(false, "ingest replay %d: %v", i, err)
			return
		}
		ls.add("core.ingest_s", time.Since(t0).Seconds())
		eng = next
	}
}

// spanLayers derives the boundary metrics: gateway self time is the
// gateway span minus its shard child spans (same trace id), serve self
// time the shard span minus the in-process ApplyAll of the same batch.
func spanLayers(spans []span, applyByTrace map[string]float64, ls samples) {
	shardTime := map[string]time.Duration{}
	for _, sp := range spans {
		if sp.layer == layerShard {
			shardTime[sp.trace] += sp.dur
		}
	}
	for _, sp := range spans {
		switch sp.layer {
		case layerGateway:
			self := sp.dur - shardTime[sp.trace]
			if sp.route == "ingest" {
				ls.add("cluster.ingest_self_s", self.Seconds())
			} else {
				ls.add("cluster.gateway_self_ms", ms(self))
			}
			ls.add("cluster.failed", boolf(sp.status >= 500))
		case layerShard:
			switch sp.route {
			case "actions", "state":
				ls.add("serve.handler_ms."+sp.route, ms(sp.dur))
			case "ingest":
				ls.add("serve.ingest_shard_s", sp.dur.Seconds())
			}
			if ta, ok := applyByTrace[sp.trace]; ok && sp.route == "actions" {
				ls.add("serve.self_ms", ms(sp.dur)-ta)
			}
			ls.add("serve.failed", boolf(sp.status >= 400))
		}
	}
}

// clientLayers adds what the client itself counts: conditional reads
// answered 304, response sizes, stream lag and resyncs, and how often
// an explored focal group had been explored before in the run.
func clientLayers(o *outcome, ls samples) {
	ops := append([]op(nil), o.ops...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].start.Before(ops[j].start) })
	seen := map[int]bool{}
	for _, x := range ops {
		if x.cond {
			ls.add("serve.not_modified", boolf(x.notMod))
		}
		if x.bytes > 0 {
			ls.add("serve.response_kb", float64(x.bytes)/1024)
		}
		if x.kind == "explore" && x.ok {
			ls.add("index.focal_repeat", boolf(seen[x.group]))
			seen[x.group] = true
		}
	}
	for _, l := range o.lags {
		ls.add("serve.sse_lag_ms", l)
	}
	ls.add("serve.sse_resyncs", float64(o.resyncs))
}
