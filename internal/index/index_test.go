package index

import (
	"math"
	"testing"
	"testing/quick"

	"vexus/internal/bitset"
	"vexus/internal/groups"
	"vexus/internal/rng"
)

// buildSpace creates a space of n random groups over u users.
func buildSpace(t testing.TB, seed uint64, u, n int) *groups.Space {
	t.Helper()
	r := rng.New(seed)
	v := groups.NewVocab()
	gs := make([]*groups.Group, 0, n)
	for i := 0; i < n; i++ {
		id := v.Intern("t", string(rune('0'+i%10))+string(rune('a'+i/10)))
		members := bitset.New(u)
		size := 1 + r.Intn(u/2)
		for _, m := range r.SampleWithoutReplacement(u, size) {
			members.Add(m)
		}
		gs = append(gs, &groups.Group{Desc: groups.NewDescription(id), Members: members})
	}
	s, err := groups.NewSpace(u, v, gs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildValidation(t *testing.T) {
	s := buildSpace(t, 1, 20, 5)
	if _, err := Build(s, 0); err == nil {
		t.Fatal("frac=0 accepted")
	}
	if _, err := Build(s, 1.5); err == nil {
		t.Fatal("frac>1 accepted")
	}
}

func TestFullMaterializationIsExact(t *testing.T) {
	s := buildSpace(t, 2, 40, 12)
	ix, err := Build(s, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for gid := 0; gid < s.Len(); gid++ {
		got := ix.Neighbors(gid, s.Len())
		want := ix.ExactNeighbors(gid, s.Len())
		if len(got) != len(want) {
			t.Fatalf("gid %d: %d vs %d", gid, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("gid %d entry %d: %+v vs %+v", gid, i, got[i], want[i])
			}
		}
		if r := ix.RecallAtK(gid, 5); r != 1 {
			t.Fatalf("full materialization recall = %v", r)
		}
	}
}

func TestListsSortedDescending(t *testing.T) {
	s := buildSpace(t, 3, 30, 10)
	ix, err := Build(s, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for gid := 0; gid < s.Len(); gid++ {
		list := ix.Neighbors(gid, s.Len())
		for i := 1; i < len(list); i++ {
			if list[i].Sim > list[i-1].Sim {
				t.Fatalf("gid %d not sorted: %v", gid, list)
			}
		}
		for _, nb := range list {
			if nb.ID == gid {
				t.Fatalf("gid %d lists itself", gid)
			}
			if nb.Sim <= 0 || nb.Sim > 1 {
				t.Fatalf("gid %d similarity %v out of range", gid, nb.Sim)
			}
			want := s.Group(gid).Jaccard(s.Group(nb.ID))
			if math.Abs(nb.Sim-want) > 1e-12 {
				t.Fatalf("gid %d sim to %d = %v, want %v", gid, nb.ID, nb.Sim, want)
			}
		}
	}
}

func TestPartialMaterializationFallback(t *testing.T) {
	s := buildSpace(t, 4, 50, 20)
	ix, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Build(s, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for gid := 0; gid < s.Len(); gid++ {
		// Ask beyond the prefix: fallback must return the exact answer.
		k := ix.OverlapCount(gid)
		if k == 0 {
			continue
		}
		got := ix.Neighbors(gid, k)
		want := full.Neighbors(gid, k)
		if len(got) != len(want) {
			t.Fatalf("gid %d fallback len %d want %d", gid, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("gid %d fallback entry %d: %+v vs %+v", gid, i, got[i], want[i])
			}
		}
	}
}

func TestPrefixLen(t *testing.T) {
	cases := []struct {
		frac  float64
		total int
		want  int
	}{
		{0.1, 100, 10},
		{0.1, 5, 1},
		{0.1, 0, 0},
		{1, 7, 7},
		{0.15, 10, 2},
		{0.001, 100, 1},
	}
	for _, c := range cases {
		if got := prefixLen(c.frac, c.total); got != c.want {
			t.Errorf("prefixLen(%v, %d) = %d, want %d", c.frac, c.total, got, c.want)
		}
	}
}

func TestNeighborsKZero(t *testing.T) {
	s := buildSpace(t, 5, 20, 6)
	ix, err := Build(s, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Neighbors(0, 0); got != nil {
		t.Fatalf("k=0 -> %v", got)
	}
	if got := ix.Neighbors(0, -3); got != nil {
		t.Fatalf("k<0 -> %v", got)
	}
}

func TestMemoryScalesWithFraction(t *testing.T) {
	s := buildSpace(t, 6, 80, 40)
	small, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Build(s, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if small.MemoryBytes() >= big.MemoryBytes() {
		t.Fatalf("memory %d (10%%) >= %d (100%%)", small.MemoryBytes(), big.MemoryBytes())
	}
}

func TestPropRecallMonotoneInFraction(t *testing.T) {
	// Partial materialization: recall@k must be non-decreasing in the
	// materialization fraction.
	f := func(seed int64) bool {
		s := buildSpace(t, uint64(seed)+100, 40, 15)
		fracs := []float64{0.05, 0.25, 1.0}
		prev := -1.0
		for _, frac := range fracs {
			ix, err := Build(s, frac)
			if err != nil {
				return false
			}
			r := ix.MeanRecallAtK(5)
			if r < prev-1e-12 {
				return false
			}
			prev = r
		}
		return prev == 1.0 // full materialization has perfect recall
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRecallOnEmptyOverlap(t *testing.T) {
	// Disjoint groups: everyone's list is empty, recall trivially 1.
	v := groups.NewVocab()
	a := v.Intern("t", "a")
	b := v.Intern("t", "b")
	gs := []*groups.Group{
		{Desc: groups.NewDescription(a), Members: bitset.FromIndices(10, []int{0, 1})},
		{Desc: groups.NewDescription(b), Members: bitset.FromIndices(10, []int{5, 6})},
	}
	s, err := groups.NewSpace(10, v, gs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.MeanRecallAtK(3); got != 1 {
		t.Fatalf("recall = %v", got)
	}
	if got := ix.Neighbors(0, 5); len(got) != 0 {
		t.Fatalf("neighbors of isolated group: %v", got)
	}
}

func TestRng(t *testing.T) {
	// Guard: buildSpace must produce deterministic spaces per seed.
	a := buildSpace(t, 42, 30, 8)
	b := buildSpace(t, 42, 30, 8)
	for i := 0; i < a.Len(); i++ {
		if !a.Group(i).Members.Equal(b.Group(i).Members) {
			t.Fatal("buildSpace not deterministic")
		}
	}
	_ = rng.New(1)
}

func TestDisableFallback(t *testing.T) {
	s := buildSpace(t, 7, 50, 20)
	ix, err := Build(s, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	gid := 0
	prefix := ix.MaterializedLen(gid)
	if prefix >= ix.OverlapCount(gid) {
		t.Skip("prefix covers the full list on this seed")
	}
	// With fallback: more than the prefix.
	withFB := ix.Neighbors(gid, ix.OverlapCount(gid))
	if len(withFB) <= prefix {
		t.Fatalf("fallback returned %d ≤ prefix %d", len(withFB), prefix)
	}
	// Without: exactly the prefix.
	ix.DisableFallback = true
	without := ix.Neighbors(gid, ix.OverlapCount(gid))
	if len(without) != prefix {
		t.Fatalf("prefix-only returned %d, want %d", len(without), prefix)
	}
}

func TestSelectTopKMatchesSort(t *testing.T) {
	r := rng.New(33)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		ns := make([]Neighbor, n)
		for i := range ns {
			ns[i] = Neighbor{ID: i, Sim: float64(r.Intn(20)) / 20}
		}
		k := r.Intn(n + 1)
		want := append([]Neighbor(nil), ns...)
		sortNeighbors(want)
		selectTopK(ns, k)
		top := append([]Neighbor(nil), ns[:k]...)
		sortNeighbors(top)
		for i := 0; i < k; i++ {
			if top[i] != want[i] {
				t.Fatalf("trial %d: top-%d mismatch at %d: %+v vs %+v",
					trial, k, i, top[i], want[i])
			}
		}
	}
}
