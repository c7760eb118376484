// vexus-bench regenerates every quantitative claim of the paper: run
// `vexus-bench -e all` for the full suite or `-e e1,e4` for a subset.
// Each experiment prints the paper's claim above a table whose shape
// should match it. The p1..p7 experiments check the implementation
// (parallel equivalence, warm start, cluster, SSE, ingest, telemetry
// overhead, fail-closed chaos) and can write a JSON note (-bench-note).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var (
		exps  = flag.String("e", "all", "comma-separated experiments (e1..e9,p1..p7,f1) or 'all'")
		seed  = flag.Uint64("seed", 42, "master seed for synthetic data and simulations")
		scale = flag.String("scale", "small", "e9/p7 scale: small | paper")
	)
	flag.IntVar(&workersFlag, "workers", 0,
		"worker count for the parallel mining/simulation paths (0 = NumCPU, 1 = sequential)")
	flag.StringVar(&benchNote, "bench-note", "",
		"write the p1..p7 JSON note to this file (e.g. BENCH_parallel_mining.json, BENCH_store_warmstart.json, BENCH_cluster_routing.json, BENCH_sse_fanout.json, BENCH_ingest.json, BENCH_obs_overhead.json, BENCH_cluster_scale.json); run one experiment per invocation when using it")
	flag.IntVar(&p7Users, "users", 0, "p7: population size (0 = scale preset)")
	flag.IntVar(&p7Live, "live", 0, "p7: live analysts driving real sessions (0 = scale preset)")
	flag.IntVar(&p7Shards, "lshards", 0, "p7: cluster size (0 = scale preset)")
	flag.IntVar(&p7Ticks, "ticks", 0, "p7: virtual run length in ticks (0 = scale preset)")
	flag.StringVar(&p7Chaos, "chaos", "", `p7: fault schedule "tick:op[:target],..." ("" = default schedule, "none" = fault-free)`)
	flag.Parse()

	runners := map[string]func(uint64, string) error{
		"e1": runE1, "e2": runE2, "e3": runE3, "e4": runE4, "e5": runE5,
		"e6": runE6, "e7": runE7, "e8": runE8, "e9": runE9, "p1": runP1,
		"p2": runP2, "p3": runP3, "p4": runP4, "p5": runP5, "p6": runP6,
		"p7": runP7, "f1": runF1,
	}
	order := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "f1"}

	var selected []string
	if *exps == "all" {
		selected = order
	} else {
		for _, e := range strings.Split(*exps, ",") {
			e = strings.TrimSpace(strings.ToLower(e))
			if _, ok := runners[e]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (have %v)\n", e, order)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}
	for _, e := range selected {
		if err := runners[e](*seed, *scale); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func header(id, claim string) {
	fmt.Printf("=== %s ===\n", id)
	fmt.Printf("paper claim: %s\n\n", claim)
}
