package main

import (
	"fmt"
	"runtime"
	"sync"

	"vexus/internal/action"
	"vexus/internal/bitset"
	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/dataset"
	"vexus/internal/greedy"
	"vexus/internal/rng"
	"vexus/internal/simulate"
)

// Every input a workload sends is drawn here from the run's seed.
// Explore trails are explicit group ids, resolved in-process against
// the deterministic optimizer; browse plans name display positions;
// ingest batches are explicit rows.

// Stream families keep the generators' random streams apart.
const (
	famExplore uint64 = iota + 1
	famBrowse
	famBudget
	famIngest
	famSample
)

func stream(seed, fam, client, idx uint64) *rng.RNG {
	return rng.Derive(seed, fam<<40|client<<24|idx)
}

// phase offsets keep warm-up, measured and traced sessions on distinct
// browse plans, and start each phase at its own place in the trail
// pool.
const (
	phaseWarm   = 0
	phaseWindow = 1 << 20
	phaseTraced = 2 << 20
	phaseProbe  = 3 << 20
)

// The analyst is the repository's model of the paper's expert-set
// formation study (§III Scenario 1, experiment E4), simulate.RunMT: a
// programme-committee chair who clicks the shown group holding the
// most not-yet-collected target authors (a random shown group one
// click in ten) and bookmarks up to eight of them from its member
// table, until the quota is collected or the step cap is reached. The
// committee, quota, caps and noise are those of `vexus-bench -e e4`.
// Sessions take the dataset's venues in turn, as E4 does, so every
// pool holds each venue's committee equally often.
const (
	e4Committee = 60
	e4MinPubs   = 2
	e4Quota     = 30
	e4MaxSteps  = 20
	e4Inspect   = 8
	e4Noise     = 0.1
)

// trail is one analyst session after its Start: action batches, each
// an explore followed by the bookmarks made from the clicked group.
type trail [][]action.Action

// makeTrails runs n analyst sessions in-process on the deterministic
// optimizer the shards run, so each click is on a group the server
// displays at that step. Sessions run on at most two goroutines; each
// has its own random stream, so the result does not depend on their
// interleaving.
func makeTrails(seed, fam uint64, eng *core.Engine, n int) ([]trail, error) {
	det := greedy.DefaultConfig()
	det.TimeLimit = 0
	targets := make(map[string]*bitset.Set, len(datagen.Venues))
	for _, v := range datagen.Venues {
		targets[v] = simulate.CommitteeTarget(eng, v, e4MinPubs, e4Committee)
	}
	out := make([]trail, n)
	errs := make([]error, n)
	workers := min(2, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				r := stream(seed, fam, 0, uint64(i))
				venue := datagen.Venues[i%len(datagen.Venues)]
				task := simulate.MTTask{Target: targets[venue], Quota: min(e4Quota, targets[venue].Count()),
					MaxIterations: e4MaxSteps, MaxInspectPerStep: e4Inspect}
				res := simulate.RunMT(eng.NewSession(det), task, simulate.NoisyPolicy(e4Noise), r)
				out[i], errs[i] = splitTrail(res.Actions)
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("trail %d: %w", i, err)
		}
	}
	return out, nil
}

// splitTrail cuts an analyst's action log into request batches, one
// per explore.
func splitTrail(log []action.Action) (trail, error) {
	if len(log) < 2 || log[0].Op != action.Start || log[1].Op != action.Explore {
		return nil, fmt.Errorf("analyst log does not start with an explore: %v", log)
	}
	var t trail
	for _, a := range log[1:] {
		if a.Op == action.Explore {
			t = append(t, nil)
		}
		t[len(t)-1] = append(t[len(t)-1], a)
	}
	return t, nil
}

// browseStep is one non-exploring request of a browse session.
type browseStep struct {
	kind   string // state, state-cond, state-stale, focus, brush, clear, bookmark, unlearn, backtrack
	pos    int
	attr   string
	values []string
	field  string
	value  string
}

var (
	focusAttrs = []string{"gender", "seniority", "country", "topic"}
	attrValues = map[string][]string{
		"gender":    {"female", "male"},
		"seniority": {"junior", "senior", "very senior"},
		"country":   datagen.Countries,
		"topic":     datagen.Topics,
	}
)

const browseSessionOps = 24

// browsePlan is one browse session's request list. Brushes come only
// while a focus view is open (a backtrack closes it).
func browsePlan(seed uint64, client, idx int) []browseStep {
	r := stream(seed, famBrowse, uint64(client), uint64(idx))
	focused := false
	var out []browseStep
	for len(out) < browseSessionOps {
		x := r.Float64()
		var st browseStep
		switch {
		case x < 0.35:
			st.kind = "state-cond"
		case x < 0.40:
			st.kind = "state-stale"
		case x < 0.48:
			st.kind = "state"
		case x < 0.62 || (x < 0.82 && !focused):
			st.kind = "focus"
			st.pos = r.Intn(7)
			st.attr = focusAttrs[r.Intn(len(focusAttrs))]
			focused = true
		case x < 0.77:
			st.kind = "brush"
			st.attr = focusAttrs[r.Intn(len(focusAttrs))]
			vals := attrValues[st.attr]
			for _, i := range r.SampleWithoutReplacement(len(vals), 1+r.Intn(2)) {
				st.values = append(st.values, vals[i])
			}
		case x < 0.82:
			st.kind = "clear"
			st.attr = focusAttrs[r.Intn(len(focusAttrs))]
		case x < 0.88:
			st.kind = "bookmark"
			st.pos = r.Intn(7)
		case x < 0.94:
			st.kind = "unlearn"
			st.field = focusAttrs[r.Intn(len(focusAttrs))]
			vals := attrValues[st.field]
			st.value = vals[r.Intn(len(vals))]
		default:
			st.kind = "backtrack"
			focused = false
		}
		out = append(out, st)
	}
	return out
}

// action builds the mutation of a non-read browse step.
func (b browseStep) action(shown []int) action.Action {
	switch b.kind {
	case "focus":
		return action.Action{Op: action.Focus, Group: shown[b.pos%len(shown)], Class: b.attr}
	case "brush":
		return action.Action{Op: action.Brush, Attr: b.attr, Values: b.values}
	case "clear":
		return action.Action{Op: action.Brush, Attr: b.attr}
	case "bookmark":
		return action.Action{Op: action.BookmarkGroup, Group: shown[b.pos%len(shown)]}
	case "unlearn":
		return action.Action{Op: action.Unlearn, Field: b.field, Value: b.value}
	}
	return action.Action{Op: action.Backtrack, Step: 0}
}

// A batch is 3% of the default 1,000 authors, each with two venue
// publications. Every batch has the same number of rows, so rows per
// second measures speed alone.
const (
	ingestUsersPer   = 30
	ingestActionsPer = 2
)

// ingestBatch builds batch i (seq i+1): new authors with demographics
// and venue publications, ids continuing across batches.
func ingestBatch(seed uint64, i int) core.IngestBatch {
	r := stream(seed, famIngest, 0, uint64(i))
	genders := attrValues["gender"]
	seniorities := attrValues["seniority"]
	b := core.IngestBatch{Seq: uint64(i + 1)}
	for u := 0; u < ingestUsersPer; u++ {
		id := fmt.Sprintf("bench%06d", i*ingestUsersPer+u)
		b.Users = append(b.Users, dataset.NewUser{
			ID: id,
			Demo: map[string]string{
				"gender":    genders[r.Intn(len(genders))],
				"seniority": seniorities[r.Intn(len(seniorities))],
				"country":   datagen.Countries[r.Intn(len(datagen.Countries))],
				"topic":     datagen.Topics[r.Intn(len(datagen.Topics))],
			},
			Numeric: map[string]float64{"pubrate": float64(1 + r.Intn(100))},
		})
		for k := 0; k < ingestActionsPer; k++ {
			b.Actions = append(b.Actions, dataset.NewAction{
				User: id, Item: datagen.Venues[r.Intn(len(datagen.Venues))], Value: 1, Time: 2018,
			})
		}
	}
	return b
}
