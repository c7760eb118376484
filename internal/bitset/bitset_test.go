package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if got := s.Count(); got != 0 {
		t.Fatalf("Count() = %d, want 0", got)
	}
	if !s.IsEmpty() {
		t.Fatal("IsEmpty() = false, want true")
	}
	if s.Len() != 100 {
		t.Fatalf("Len() = %d, want 100", s.Len())
	}
}

func TestNewZeroUniverse(t *testing.T) {
	s := New(0)
	if s.Count() != 0 || !s.IsEmpty() {
		t.Fatal("zero universe should be empty")
	}
	if s.Contains(0) {
		t.Fatal("Contains(0) on zero universe")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("Contains(%d) = false after Add", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count() = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Contains(64) = true after Remove")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count() = %d, want 7", got)
	}
	// Removing an absent element is a no-op.
	s.Remove(64)
	if got := s.Count(); got != 7 {
		t.Fatalf("Count() after double remove = %d, want 7", got)
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	s := New(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Add(10) did not panic")
		}
	}()
	s.Add(10)
}

func TestContainsOutOfRangeFalse(t *testing.T) {
	s := New(10)
	if s.Contains(-1) || s.Contains(10) || s.Contains(1000) {
		t.Fatal("Contains out of range should be false, not panic")
	}
}

func TestFromIndices(t *testing.T) {
	s := FromIndices(20, []int{3, 7, 7, 11})
	if got := s.Count(); got != 3 {
		t.Fatalf("Count() = %d, want 3 (duplicates collapse)", got)
	}
	for _, i := range []int{3, 7, 11} {
		if !s.Contains(i) {
			t.Fatalf("missing %d", i)
		}
	}
}

func TestFillAndComplement(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 128} {
		s := New(n)
		s.Fill()
		if got := s.Count(); got != n {
			t.Fatalf("n=%d: Fill Count() = %d, want %d", n, got, n)
		}
		s.InPlaceComplement()
		if got := s.Count(); got != 0 {
			t.Fatalf("n=%d: complement of full = %d members, want 0", n, got)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := FromIndices(50, []int{1, 2, 3})
	c := s.Clone()
	c.Add(10)
	if s.Contains(10) {
		t.Fatal("mutating clone affected original")
	}
	if !s.Equal(FromIndices(50, []int{1, 2, 3})) {
		t.Fatal("original changed")
	}
}

func TestEqual(t *testing.T) {
	a := FromIndices(64, []int{1, 5})
	b := FromIndices(64, []int{1, 5})
	c := FromIndices(64, []int{1, 6})
	d := FromIndices(65, []int{1, 5})
	if !a.Equal(b) {
		t.Fatal("a != b")
	}
	if a.Equal(c) {
		t.Fatal("a == c")
	}
	if a.Equal(d) {
		t.Fatal("different universes compared equal")
	}
}

func TestIndicesAndRange(t *testing.T) {
	want := []int{0, 9, 63, 64, 99}
	s := FromIndices(100, want)
	got := s.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices()[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Early-exit Range.
	n := 0
	s.Range(func(int) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("Range visited %d, want 2", n)
	}
}

func TestNext(t *testing.T) {
	s := FromIndices(200, []int{5, 64, 130})
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 130}, {130, 130},
		{131, -1}, {-3, 5}, {500, -1},
	}
	for _, c := range cases {
		if got := s.Next(c.from); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromIndices(128, []int{1, 2, 3, 70})
	b := FromIndices(128, []int{3, 4, 70, 100})

	if got := a.Union(b).Indices(); len(got) != 6 {
		t.Fatalf("union size = %d, want 6", len(got))
	}
	inter := a.Intersect(b)
	if !inter.Equal(FromIndices(128, []int{3, 70})) {
		t.Fatalf("intersect = %v", inter)
	}
	diff := a.Difference(b)
	if !diff.Equal(FromIndices(128, []int{1, 2})) {
		t.Fatalf("difference = %v", diff)
	}
	if got := a.IntersectCount(b); got != 2 {
		t.Fatalf("IntersectCount = %d, want 2", got)
	}
	if got := a.UnionCount(b); got != 6 {
		t.Fatalf("UnionCount = %d, want 6", got)
	}
	if got := a.DifferenceCount(b); got != 2 {
		t.Fatalf("DifferenceCount = %d, want 2", got)
	}
	if !a.Intersects(b) {
		t.Fatal("Intersects = false")
	}
	if a.Intersects(FromIndices(128, []int{9})) {
		t.Fatal("Intersects with disjoint = true")
	}
}

func TestSubsetOf(t *testing.T) {
	a := FromIndices(64, []int{1, 2})
	b := FromIndices(64, []int{1, 2, 3})
	if !a.SubsetOf(b) {
		t.Fatal("a ⊆ b expected")
	}
	if b.SubsetOf(a) {
		t.Fatal("b ⊆ a unexpected")
	}
	empty := New(64)
	if !empty.SubsetOf(a) {
		t.Fatal("∅ ⊆ a expected")
	}
}

func TestJaccard(t *testing.T) {
	a := FromIndices(64, []int{1, 2, 3})
	b := FromIndices(64, []int{2, 3, 4})
	if got, want := a.Jaccard(b), 2.0/4.0; got != want {
		t.Fatalf("Jaccard = %v, want %v", got, want)
	}
	if got := a.Jaccard(a); got != 1 {
		t.Fatalf("self Jaccard = %v, want 1", got)
	}
	e1, e2 := New(64), New(64)
	if got := e1.Jaccard(e2); got != 1 {
		t.Fatalf("empty-empty Jaccard = %v, want 1 by convention", got)
	}
	if got := a.JaccardDistance(b); got != 0.5 {
		t.Fatalf("JaccardDistance = %v, want 0.5", got)
	}
}

func TestOverlap(t *testing.T) {
	a := FromIndices(64, []int{1, 2})
	b := FromIndices(64, []int{1, 2, 3, 4, 5})
	if got := a.Overlap(b); got != 1.0 {
		t.Fatalf("Overlap = %v, want 1 (a ⊆ b)", got)
	}
	if got := New(64).Overlap(b); got != 1.0 {
		t.Fatalf("Overlap with empty = %v, want 1 by convention", got)
	}
}

func TestUniverseMismatchPanics(t *testing.T) {
	a, b := New(10), New(20)
	defer func() {
		if recover() == nil {
			t.Fatal("universe mismatch did not panic")
		}
	}()
	a.InPlaceUnion(b)
}

func TestString(t *testing.T) {
	s := FromIndices(64, []int{1, 2})
	if got := s.String(); got != "{1, 2}" {
		t.Fatalf("String() = %q", got)
	}
	big := New(64)
	big.Fill()
	if got := big.String(); len(got) == 0 || got[0] != '{' {
		t.Fatalf("String() = %q", got)
	}
}

// --- property-based tests -------------------------------------------------

const propUniverse = 256

func randomSet(r *rand.Rand) *Set {
	s := New(propUniverse)
	n := r.Intn(propUniverse)
	for i := 0; i < n; i++ {
		s.Add(r.Intn(propUniverse))
	}
	return s
}

func TestPropDeMorgan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		// ¬(A ∪ B) == ¬A ∩ ¬B
		lhs := a.Union(b)
		lhs.InPlaceComplement()
		na, nb := a.Clone(), b.Clone()
		na.InPlaceComplement()
		nb.InPlaceComplement()
		rhs := na.Intersect(nb)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropInclusionExclusion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		return a.UnionCount(b) == a.Count()+b.Count()-a.IntersectCount(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropJaccardBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		j := a.Jaccard(b)
		if j < 0 || j > 1 {
			return false
		}
		// Symmetry.
		if j != b.Jaccard(a) {
			return false
		}
		// Identity of indiscernibles direction: equal sets ⇒ J = 1.
		if a.Equal(b) && j != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropDifferenceDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		d := a.Difference(b)
		return !d.Intersects(b) || d.IsEmpty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropIndicesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomSet(r)
		return FromIndices(propUniverse, a.Indices()).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropSubsetIntersection(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		inter := a.Intersect(b)
		return inter.SubsetOf(a) && inter.SubsetOf(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkJaccardBitset(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	n := 100_000
	a, c := New(n), New(n)
	for i := 0; i < n/10; i++ {
		a.Add(r.Intn(n))
		c.Add(r.Intn(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Jaccard(c)
	}
}

// BenchmarkJaccardMap is the ablation baseline for the bitset design
// choice: Jaccard over Go map-based sets, for comparison with the
// word-parallel bitset implementation above.
func BenchmarkJaccardMap(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	n := 100_000
	a := make(map[int]struct{}, n/10)
	c := make(map[int]struct{}, n/10)
	for i := 0; i < n/10; i++ {
		a[r.Intn(n)] = struct{}{}
		c[r.Intn(n)] = struct{}{}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inter := 0
		for k := range a {
			if _, ok := c[k]; ok {
				inter++
			}
		}
		union := len(a) + len(c) - inter
		_ = float64(inter) / float64(union)
	}
}

func TestIntersectDifferenceCount(t *testing.T) {
	s := FromIndices(128, []int{1, 2, 3, 70})
	a := FromIndices(128, []int{2, 3, 70, 100})
	b := FromIndices(128, []int{3})
	// s ∩ a = {2,3,70}; minus b = {2,70}.
	if got := s.IntersectDifferenceCount(a, b); got != 2 {
		t.Fatalf("IntersectDifferenceCount = %d, want 2", got)
	}
	empty := New(128)
	if got := s.IntersectDifferenceCount(empty, b); got != 0 {
		t.Fatalf("with empty a = %d", got)
	}
	if got := s.IntersectDifferenceCount(a, empty); got != 3 {
		t.Fatalf("with empty b = %d", got)
	}
}

func TestPropIntersectDifferenceCount(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, a, b := randomSet(r), randomSet(r), randomSet(r)
		want := s.Intersect(a).Difference(b).Count()
		return s.IntersectDifferenceCount(a, b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
