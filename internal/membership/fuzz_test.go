package membership

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// rosterRow is the routing-relevant slice of a MemberInfo; gossip
// metadata (sessions, engine versions) is not compared.
type rosterRow struct {
	Name, Addr string
	Static     bool
	State      State
	Draining   bool
}

func rosterRows(mis []MemberInfo) []rosterRow {
	out := make([]rosterRow, len(mis))
	for i, mi := range mis {
		out[i] = rosterRow{mi.Name, mi.Addr, mi.Static, mi.State, mi.Draining}
	}
	return out
}

// FuzzOpenRouteTable feeds Open arbitrary route-table bytes. Open must
// never panic; a table it accepts holds only named members in a known
// state; and one Join followed by a reopen reports the epoch plus one,
// the same roster plus the joiner, and the same draining flags.
func FuzzOpenRouteTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, table []byte) {
		path := filepath.Join(t.TempDir(), "routes.json")
		if err := os.WriteFile(path, table, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(Config{Path: path})
		if err != nil {
			return
		}
		before := d.Members()
		for _, mi := range before {
			if mi.Name == "" {
				t.Fatalf("accepted a member without a name: %+v", mi)
			}
			if mi.State != StateAlive && mi.State != StateDown {
				t.Fatalf("member %q reloaded in state %q", mi.Name, mi.State)
			}
		}

		joiner := "joiner"
		for d.Known(joiner) {
			joiner += "+"
		}
		epoch := d.Epoch()
		if err := d.Join(Member{Name: joiner, Addr: "127.0.0.1:1"}); err != nil {
			t.Fatal(err)
		}
		d2, err := Open(Config{Path: path})
		if err != nil {
			t.Fatalf("reopening a table the directory wrote: %v", err)
		}
		if d2.Epoch() != epoch+1 {
			t.Fatalf("epoch after join and reopen = %d, want %d", d2.Epoch(), epoch+1)
		}
		want := append(rosterRows(before), rosterRow{Name: joiner, Addr: "127.0.0.1:1", State: StateAlive})
		sort.Slice(want, func(i, j int) bool { return want[i].Name < want[j].Name })
		got := rosterRows(d2.Members())
		if len(got) != len(want) {
			t.Fatalf("roster after join and reopen:\n got  %+v\n want %+v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("roster row %d after join and reopen:\n got  %+v\n want %+v", i, got[i], want[i])
			}
		}
	})
}
