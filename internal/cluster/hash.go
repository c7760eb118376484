package cluster

import "hash/fnv"

// Placement is rendezvous (highest-random-weight) hashing: every
// shard/session pair gets a deterministic 64-bit score and the session
// belongs to the highest-scoring shard. Two properties make it the
// right shape for session routing:
//
//   - Statelessness: any process that knows the shard names computes
//     the same owner for a sid — a gateway needs no routing table to
//     agree with its peers (the table it does keep is an optimization
//     and a migration latch, not the source of truth in steady state).
//   - Minimal disruption: removing a shard reassigns only the sessions
//     that lived on it, and adding one steals only the sessions it now
//     wins — exactly the set replay-based migration has to move.
//
// FNV-1a alone is too weak here: a sid's last bytes pass through only
// one multiply, so sids that differ in a trailing counter ("u1", "u2",
// …) shift every shard's score by nearly the same amount and keep
// piling onto one winner. The murmur3 fmix64 finalizer spreads every
// input bit over the whole score.
func score(shard, sid string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(shard))
	_, _ = h.Write([]byte{0}) // separator: ("ab","c") ≠ ("a","bc")
	_, _ = h.Write([]byte(sid))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Owner returns the rendezvous winner for sid among the given shard
// names ("" when names is empty). Ties — vanishingly rare with 64-bit
// scores, but determinism must not hinge on rarity — break toward the
// lexicographically smallest name.
func Owner(names []string, sid string) string {
	best := ""
	var bestScore uint64
	for _, n := range names {
		s := score(n, sid)
		if best == "" || s > bestScore || (s == bestScore && n < best) {
			best, bestScore = n, s
		}
	}
	return best
}
