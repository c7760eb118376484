package loadsim

// Summary is the deterministic result of one Run: identical Configs
// (Workers excluded) marshal to byte-identical JSON at any worker
// count. Every field is accumulated in fixed sequential order; no
// wall-clock quantity appears.
type Summary struct {
	// Echoed configuration (Workers deliberately absent).
	Users  int    `json:"users"`
	Live   int    `json:"live"`
	Shards int    `json:"shards"`
	Ticks  int    `json:"ticks"`
	Seed   uint64 `json:"seed"`
	Chaos  string `json:"chaos"`

	// Workload volume.
	VirtualActions uint64            `json:"virtual_actions"`
	ActionsByOp    map[string]uint64 `json:"actions_by_op"`
	VirtualCreates int               `json:"virtual_creates"`
	LiveCreates    int               `json:"live_creates"`
	CreateRetries  int               `json:"create_retries"`

	// Availability and loss under chaos.
	Unavailable     int            `json:"unavailable"`
	UnavailableLive int            `json:"unavailable_live"`
	SessionsLost    int            `json:"sessions_lost"`
	LostByCause     map[string]int `json:"lost_by_cause"`
	BadBatches      int            `json:"bad_batches"`
	OtherErrors     int            `json:"other_errors"`

	// Fail-closed invariants: all zero on a correct cluster.
	MisroutedSessions int  `json:"misrouted_sessions"`
	EtagBreaks        int  `json:"etag_breaks"`
	EpochViolations   int  `json:"epoch_violations"`
	ChaosErrors       int  `json:"chaos_errors"`
	AuditFailures     int  `json:"audit_failures"`
	FailOpenSessions  int  `json:"fail_open_sessions"`
	RestartPreserved  bool `json:"restart_epoch_preserved"`

	// Chaos accounting.
	ChaosApplied   []string `json:"chaos_applied"`
	Restarts       int      `json:"restarts"`
	RestartLost    int      `json:"restart_lost"`
	DrainMoved     int      `json:"drain_moved"`
	DrainMovedLive int      `json:"drain_moved_live"`
	VirtualRehomed int      `json:"virtual_rehomed"`
	ReplayedMut    uint64   `json:"replayed_mutations"`

	// Server-side counters (telemetry scrape, sorted-shard order).
	EngineEvictions uint64 `json:"engine_evictions"`
	SessionsEvicted uint64 `json:"sessions_evicted"`

	// SSE delivery.
	SSEStarted    int            `json:"sse_started"`
	SSEFailed     int            `json:"sse_failed"`
	SSEDelivered  uint64         `json:"sse_events_delivered"`
	SSECloseCount map[string]int `json:"sse_closed_by_reason"`

	AuditedOK  int    `json:"audited_ok"`
	EpochFinal uint64 `json:"epoch_final"`
}

// summary assembles the Summary after the final audit. All folds run
// in sorted-shard or stream-creation order.
func (h *harness) summary() *Summary {
	s := &Summary{
		Users:  h.cfg.Users,
		Live:   h.cfg.Live,
		Shards: h.cfg.Shards,
		Ticks:  h.cfg.Ticks,
		Seed:   h.cfg.Seed,
		Chaos:  h.cfg.Chaos,

		VirtualActions: h.virtualActions,
		ActionsByOp:    h.actionsByOp,
		VirtualCreates: h.virtualCreates,
		LiveCreates:    h.liveCreates,
		CreateRetries:  h.createRetries,

		Unavailable:     h.unavailable,
		UnavailableLive: h.unavailableLive,
		SessionsLost:    h.lost,
		LostByCause:     h.lostByCause,
		BadBatches:      h.badBatches,
		OtherErrors:     h.otherErrors,

		MisroutedSessions: h.misrouted,
		EtagBreaks:        h.etagBreaks,
		EpochViolations:   h.epochViolations,
		ChaosErrors:       h.chaosErrors,
		AuditFailures:     h.auditFailures,
		FailOpenSessions:  h.failOpenSessions,
		RestartPreserved:  h.restartEpochPreserved,

		ChaosApplied:   append([]string{}, h.chaosApplied...),
		Restarts:       h.restarts,
		RestartLost:    h.restartLost,
		DrainMoved:     h.drainMovedReal,
		DrainMovedLive: h.drainMovedLive,
		VirtualRehomed: h.virtualRehomed,
		ReplayedMut:    h.replayedMut,

		SSEStarted:    h.sseStarted,
		SSEFailed:     h.sseFailed,
		SSECloseCount: map[string]int{},

		AuditedOK:  h.auditedOK,
		EpochFinal: h.gw.Epoch(),
	}

	for _, name := range h.names {
		n := h.nodes[name]
		s.EngineEvictions += h.shardCounter(n, "vexus_engine_evictions_total")
		s.SessionsEvicted += h.shardCounter(n, "vexus_sessions_evicted_total")
	}

	for _, st := range h.streams {
		_, events, reason, closed := st.snapshotState()
		s.SSEDelivered += events
		switch {
		case !closed:
			reason = "open"
		case reason == "":
			reason = "client closed" // harness cancel, no terminal frame
		}
		s.SSECloseCount[reason]++
	}
	return s
}
