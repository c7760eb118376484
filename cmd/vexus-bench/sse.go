package main

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"vexus/internal/serve"
)

// ---------------------------------------------------------------------------
// P4 — SSE diff-push latency + fan-out cost (the server-push half of
// the exploration loop): one session, N attached watchers, a driver
// applying explore actions. Two numbers matter: what an attached
// watcher pays to learn about a mutation (end-to-end push latency,
// measured from the driver's POST start to the matching diff event
// arriving on a subscriber), and what the write path pays for fan-out
// (per-action apply time as N grows — publish is a non-blocking
// bounded-queue send per subscriber, so this should stay flat).

func runP4(seed uint64, _ string) error {
	header("P4: SSE diff-push fan-out",
		"diff streams deliver every mutation to N watchers at millisecond latency without slowing the write path")

	eng, err := buildAuthors(seed, 1000, 0.02)
	if err != nil {
		return err
	}
	s := serve.New(eng, greedyDet(), serve.DefaultConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Routes())
	defer ts.Close()

	levels := []int{0, 1, 4, 16, 64}
	const actions = 60

	type row struct {
		Subscribers int     `json:"subscribers"`
		Actions     int     `json:"actions"`
		ApplyMS     float64 `json:"apply_ms_per_action"`
		PushMS      float64 `json:"push_latency_ms_mean"`
	}
	rows := make([]row, 0, len(levels))

	fmt.Printf("%-12s %8s %14s %16s\n", "subscribers", "actions", "apply ms/act", "push latency ms")
	for _, n := range levels {
		st, err := createSession(ts.URL)
		if err != nil {
			return err
		}
		subs := make([]*benchStream, n)
		for i := range subs {
			sub, err := openBenchStream(ts.URL, st.Session, actions+8)
			if err != nil {
				return fmt.Errorf("subscriber %d: %w", i, err)
			}
			subs[i] = sub
		}

		var applyTotal, pushTotal time.Duration
		cur := st
		for i := 0; i < actions; i++ {
			t0 := time.Now()
			next, err := applyExplore(ts.URL, st.Session, cur.Shown[i%2].ID)
			if err != nil {
				return fmt.Errorf("action %d at fan-out %d: %w", i, n, err)
			}
			applyTotal += time.Since(t0)
			if n > 0 {
				// Create is mutation 1, so action i lands as diff id i+2.
				at, err := subs[0].waitFor(uint64(i + 2))
				if err != nil {
					return fmt.Errorf("push %d at fan-out %d: %w", i, n, err)
				}
				pushTotal += at.Sub(t0)
			}
			cur = next
		}
		for _, sub := range subs {
			sub.close()
		}

		applyMS := float64(applyTotal.Microseconds()) / 1000 / actions
		pushMS := 0.0
		if n > 0 {
			pushMS = float64(pushTotal.Microseconds()) / 1000 / actions
		}
		rows = append(rows, row{Subscribers: n, Actions: actions, ApplyMS: applyMS, PushMS: pushMS})
		if n == 0 {
			fmt.Printf("%-12d %8d %14.3f %16s\n", n, actions, applyMS, "-")
		} else {
			fmt.Printf("%-12d %8d %14.3f %16.3f\n", n, actions, applyMS, pushMS)
		}
	}

	base, top := rows[0].ApplyMS, rows[len(rows)-1].ApplyMS
	fmt.Printf("\nfan-out %dx subscribers multiplies apply time %.2fx (bounded-queue publish: watchers ride along, writers never wait)\n",
		levels[len(levels)-1], top/base)

	return writeNote("sse_fanout", seed, struct {
		Rows []row `json:"rows"`
	}{rows})
}

// benchStream is a minimal SSE consumer: a parser goroutine feeds diff
// event ids (with arrival times) to a buffered channel. Buffer it for
// the whole run — non-designated subscribers are never read and must
// not stall their parser, or they would measure the server's overflow
// path instead of its fan-out path.
type benchStream struct {
	res *http.Response
	ids chan benchEventAt
}

type benchEventAt struct {
	id uint64
	at time.Time
}

func openBenchStream(base, sid string, buffer int) (*benchStream, error) {
	res, err := http.DefaultClient.Get(base + "/api/v1/sessions/" + sid + "/events")
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		res.Body.Close()
		return nil, fmt.Errorf("events: status %d", res.StatusCode)
	}
	s := &benchStream{res: res, ids: make(chan benchEventAt, buffer)}
	go func() {
		defer close(s.ids)
		sc := bufio.NewScanner(res.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "id: ") {
				continue
			}
			id, err := strconv.ParseUint(line[len("id: "):], 10, 64)
			if err != nil {
				continue
			}
			select {
			case s.ids <- benchEventAt{id: id, at: time.Now()}:
			default: // buffer full — drop; only the designated reader waits
			}
		}
	}()
	return s, nil
}

// waitFor blocks until the event with the given id arrives and returns
// its arrival time.
func (s *benchStream) waitFor(id uint64) (time.Time, error) {
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-s.ids:
			if !ok {
				return time.Time{}, fmt.Errorf("stream ended before id %d", id)
			}
			if ev.id == id {
				return ev.at, nil
			}
		case <-deadline:
			return time.Time{}, fmt.Errorf("timed out waiting for id %d", id)
		}
	}
}

func (s *benchStream) close() { s.res.Body.Close() }
