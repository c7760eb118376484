package main

import (
	"fmt"
	"os"
	"time"

	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/dataset"
	"vexus/internal/parallel"
	"vexus/internal/rng"
	"vexus/internal/store"
)

// ---------------------------------------------------------------------------
// P5 — live ingestion (the versioned-engine subsystem): batch ingest
// throughput, version-swap latency (one Ingest is one deterministic
// re-pipeline), and warm-load cost of a base+delta snapshot against
// the same snapshot compacted. Ingest(batch) is bit-identical to
// core.Build over the augmented dataset by contract, so the rows/s
// figure prices the rebuild an ingest amortizes over its rows.

// p5Batch synthesizes one valid dbauthors ingest batch: usersPer new
// authors with uniform demographics and 1–3 venue actions each. Ids
// continue from *next so consecutive batches never collide.
func p5Batch(r *rng.RNG, next *int, usersPer int) core.IngestBatch {
	genders := []string{"female", "male"}
	seniorities := []string{"junior", "senior", "very senior"}
	var b core.IngestBatch
	for i := 0; i < usersPer; i++ {
		id := fmt.Sprintf("live%05d", *next)
		*next++
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
		for k, nk := 0, 1+r.Intn(3); k < nk; k++ {
			b.Actions = append(b.Actions, dataset.NewAction{
				User:  id,
				Item:  datagen.Venues[r.Intn(len(datagen.Venues))],
				Value: 1,
				Time:  2018,
			})
		}
	}
	return b
}

func runP5(seed uint64, _ string) error {
	header("P5: live dataset ingestion",
		"Ingest(batch) rebuilds bit-identically to Build(augmented); base+delta snapshots warm-load and compact")

	d, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 2000, Seed: seed})
	if err != nil {
		return err
	}
	cfg := core.DefaultPipelineConfig()
	cfg.Encode = datagen.DBAuthorsEncodeOptions()
	cfg.MinSupportFrac = 0.02
	cfg.Workers = workersFlag
	workers := parallel.Workers(workersFlag, 1<<30)

	t0 := time.Now()
	base, err := core.Build(d, cfg)
	if err != nil {
		return err
	}
	buildTime := time.Since(t0)

	dir, err := os.MkdirTemp("", "vexus-bench-ingest")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := dir + "/live.snap"
	fp := store.ComputeFingerprint(d, cfg)
	if err := store.SaveFile(path, base, fp); err != nil {
		return err
	}

	// Ingest ladder: each batch is one version swap and one DLTA append.
	const batches, usersPer = 4, 50
	r := rng.New(seed).Split(99)
	cur := base
	rows, next := 0, 0
	var swapMS []float64
	t0 = time.Now()
	for i := 0; i < batches; i++ {
		b := p5Batch(r, &next, usersPer)
		b.Seq = cur.Version()
		ti := time.Now()
		ne, err := cur.Ingest(b)
		if err != nil {
			return fmt.Errorf("p5: batch %d: %w", i+1, err)
		}
		swapMS = append(swapMS, float64(time.Since(ti).Microseconds())/1000)
		if err := store.AppendDeltaFile(path, b, store.ChainFingerprint(fp, ne.Lineage())); err != nil {
			return fmt.Errorf("p5: append delta %d: %w", i+1, err)
		}
		rows += len(b.Users) + len(b.Actions)
		cur = ne
	}
	ingestTime := time.Since(t0)
	rowsPerSec := float64(rows) / ingestTime.Seconds()
	deltaInfo, err := os.Stat(path)
	if err != nil {
		return err
	}

	// Warm load of base + all pending deltas (one replayed rebuild).
	t0 = time.Now()
	fromDeltas, err := store.LoadFileFresh(path, fp, workersFlag)
	if err != nil {
		return fmt.Errorf("p5: load base+delta: %w", err)
	}
	deltaLoad := time.Since(t0)
	if fromDeltas.Version() != cur.Version() || fromDeltas.Space.Len() != cur.Space.Len() {
		return fmt.Errorf("p5: base+delta load at version %d/%d groups, want %d/%d",
			fromDeltas.Version(), fromDeltas.Space.Len(), cur.Version(), cur.Space.Len())
	}

	// Compacted rewrite of the same engine, then its warm load.
	compacted := dir + "/compacted.snap"
	if err := store.SaveFile(compacted, cur, fp); err != nil {
		return err
	}
	compInfo, err := os.Stat(compacted)
	if err != nil {
		return err
	}
	t0 = time.Now()
	fromCompact, err := store.LoadFileFresh(compacted, fp, workersFlag)
	if err != nil {
		return fmt.Errorf("p5: load compacted: %w", err)
	}
	compactLoad := time.Since(t0)
	if fromCompact.Version() != cur.Version() || fromCompact.Space.Len() != cur.Space.Len() {
		return fmt.Errorf("p5: compacted load diverged")
	}

	meanSwap, maxSwap := 0.0, 0.0
	for _, ms := range swapMS {
		meanSwap += ms
		if ms > maxSwap {
			maxSwap = ms
		}
	}
	meanSwap /= float64(len(swapMS))

	fmt.Printf("%-24s %12s\n", "stage", "value")
	fmt.Printf("%-24s %11.1fms\n", "cold build", float64(buildTime.Microseconds())/1000)
	fmt.Printf("%-24s %11.1fms\n", "mean version swap", meanSwap)
	fmt.Printf("%-24s %11.1fms\n", "max version swap", maxSwap)
	fmt.Printf("%-24s %12.0f\n", "ingest rows/s", rowsPerSec)
	fmt.Printf("%-24s %11.1fms\n", "warm load base+delta", float64(deltaLoad.Microseconds())/1000)
	fmt.Printf("%-24s %11.1fms\n", "warm load compacted", float64(compactLoad.Microseconds())/1000)
	fmt.Printf("\n%d batches (%d rows) → engine version %d; base+delta %d KiB vs compacted %d KiB (workers=%d)\n",
		batches, rows, cur.Version(), deltaInfo.Size()/1024, compInfo.Size()/1024, workers)

	return writeNote("ingest", seed, struct {
		Workers        int       `json:"workers"`
		Batches        int       `json:"batches"`
		Rows           int       `json:"rows"`
		EngineVersion  uint64    `json:"engine_version"`
		BuildMS        float64   `json:"build_ms"`
		SwapMS         []float64 `json:"swap_ms"`
		RowsPerSec     float64   `json:"rows_per_sec"`
		DeltaBytes     int64     `json:"delta_snapshot_bytes"`
		CompactedBytes int64     `json:"compacted_snapshot_bytes"`
		DeltaLoadMS    float64   `json:"warm_load_delta_ms"`
		CompactLoadMS  float64   `json:"warm_load_compacted_ms"`
	}{
		Workers:        workers,
		Batches:        batches,
		Rows:           rows,
		EngineVersion:  cur.Version(),
		BuildMS:        float64(buildTime.Microseconds()) / 1000,
		SwapMS:         swapMS,
		RowsPerSec:     rowsPerSec,
		DeltaBytes:     deltaInfo.Size(),
		CompactedBytes: compInfo.Size(),
		DeltaLoadMS:    float64(deltaLoad.Microseconds()) / 1000,
		CompactLoadMS:  float64(compactLoad.Microseconds()) / 1000,
	})
}
