package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vexus/internal/cluster"
	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/dataset"
	"vexus/internal/greedy"
	"vexus/internal/serve"
	"vexus/internal/telemetry"
)

// The server defaults a user gets from `vexus-server` with no flags,
// and the author count of the expert-set formation experiment
// (`vexus-bench -e e4`) whose analyst the workloads replay.
const (
	defaultAuthors = 1000
	defaultMinSup  = 0.02
	e4Authors      = 2000
)

// stackConfig says which deployment a workload measures.
type stackConfig struct {
	seed    uint64
	authors int
	// cluster selects a gateway over two shard servers (deterministic
	// optimizer, as -shard forces); otherwise one plain server runs
	// greedy.DefaultConfig().
	cluster bool
	// shardDelay is injected by the shard-handler wrapper into every
	// session request — the sensitivity self-test's slowdown. Zero in
	// every real run.
	shardDelay time.Duration
}

// stack is one running deployment: an engine, the servers over it, the
// loopback listeners and (in cluster mode) the gateway in front.
type stack struct {
	data    *dataset.Dataset
	pcfg    core.PipelineConfig
	eng     *core.Engine
	gcfg    greedy.Config
	front   string   // base URL clients talk to
	shards  []string // shard base URLs (cluster mode)
	servers []*serve.Server
	gw      *cluster.Gateway
	https   []*http.Server
	buildS  float64
}

func pipelineConfig() core.PipelineConfig {
	pcfg := core.DefaultPipelineConfig()
	pcfg.Encode = datagen.DBAuthorsEncodeOptions()
	pcfg.MinSupportFrac = defaultMinSup
	return pcfg
}

func generateData(seed uint64, authors int) (*dataset.Dataset, error) {
	return datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: authors, Seed: seed})
}

// startStack brings a deployment up and returns it once the first
// session create through the front end has answered; the elapsed time
// is the set-up time a user waits for.
func startStack(cfg stackConfig, rec *recorder) (*stack, float64, error) {
	t0 := time.Now()
	st := &stack{pcfg: pipelineConfig()}
	var err error
	if st.data, err = generateData(cfg.seed, cfg.authors); err != nil {
		return nil, 0, err
	}
	tb := time.Now()
	if st.eng, err = core.Build(st.data, st.pcfg); err != nil {
		return nil, 0, err
	}
	st.buildS = time.Since(tb).Seconds()
	st.gcfg = greedy.DefaultConfig()
	if cfg.cluster {
		// Shards share one immutable engine: it is what two shard
		// processes started from the same flags would each build.
		st.gcfg.TimeLimit = 0
		scfg := serve.DefaultConfig()
		scfg.ShardAPI = true
		var members []*cluster.Shard
		for i := 0; i < 2; i++ {
			srv := serve.New(st.eng, st.gcfg, scfg)
			st.servers = append(st.servers, srv)
			addr, err := st.listen(rec.wrap(layerShard, cfg.shardDelay, srv.Routes()))
			if err != nil {
				st.close()
				return nil, 0, err
			}
			st.shards = append(st.shards, "http://"+addr)
			members = append(members, cluster.RemoteShard(addr, addr))
		}
		if st.gw, err = cluster.NewGateway(members...); err != nil {
			st.close()
			return nil, 0, err
		}
		addr, err := st.listen(rec.wrap(layerGateway, 0, st.gw.Routes()))
		if err != nil {
			st.close()
			return nil, 0, err
		}
		st.front = "http://" + addr
	} else {
		srv := serve.New(st.eng, st.gcfg, serve.DefaultConfig())
		st.servers = append(st.servers, srv)
		addr, err := st.listen(rec.wrap(layerShard, cfg.shardDelay, srv.Routes()))
		if err != nil {
			st.close()
			return nil, 0, err
		}
		st.front = "http://" + addr
	}
	c := newClient(st.front)
	defer c.close()
	if _, err := c.create(); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("first session create: %w", err)
	}
	return st, time.Since(t0).Seconds(), nil
}

func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	st.https = append(st.https, srv)
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// close stops listeners first (which also ends open SSE streams), then
// the gateway and servers.
func (st *stack) close() {
	for _, h := range st.https {
		_ = h.Close()
	}
	if st.gw != nil {
		st.gw.Close()
	}
	for _, s := range st.servers {
		s.Close()
	}
}

// setUp starts the stack n times, keeping the last one, and returns
// the median set-up time and every engine build time. Every earlier
// stack is torn down and collected before the next starts.
func setUp(cfg stackConfig, rec *recorder, n int) (*stack, float64, []float64, error) {
	var setups, builds []float64
	var st *stack
	for i := 0; i < n; i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		s, secs, err := startStack(cfg, rec)
		if err != nil {
			return nil, 0, nil, err
		}
		st = s
		setups = append(setups, secs)
		builds = append(builds, s.buildS)
	}
	return st, median(setups), builds, nil
}

// ---------------------------------------------------------------------------
// Boundary spans. The handlers handed to the listeners are wrapped
// here, in the benchmark, so the program under test is unchanged.

const (
	layerGateway = "gateway"
	layerShard   = "shard"
)

type span struct {
	layer  string
	route  string
	trace  string
	dur    time.Duration
	status int
}

// recorder keeps spans in memory while on; off, a wrapped handler
// costs one atomic load.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// routeOf names the request kinds the metrics are split by.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.HasSuffix(p, "/actions"):
		return "actions"
	case strings.HasSuffix(p, "/state"):
		return "state"
	case strings.HasSuffix(p, "/ingest"):
		return "ingest"
	case r.Method == http.MethodPost && (p == "/api/v1/sessions" || p == "/internal/cluster/sessions"):
		return "create"
	case r.Method == http.MethodDelete:
		return "delete"
	}
	return "other"
}

func (r *recorder) wrap(layer string, delay time.Duration, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		route := routeOf(req)
		if route == "events" {
			// A stream outlives any request span; pass it through.
			h.ServeHTTP(w, req)
			return
		}
		// The injected delay stands for a slower handler, so it falls
		// inside the handler's span.
		handle := func(w http.ResponseWriter) {
			if delay > 0 && route != "ingest" {
				time.Sleep(delay)
			}
			h.ServeHTTP(w, req)
		}
		if !r.on.Load() {
			handle(w)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		handle(sw)
		sp := span{layer: layer, route: route, trace: req.Header.Get(telemetry.TraceHeader),
			dur: time.Since(t0), status: sw.status}
		r.mu.Lock()
		r.spans = append(r.spans, sp)
		r.mu.Unlock()
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
