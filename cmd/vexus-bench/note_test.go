package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// noteKeys decodes a note and returns its top-level keys in document
// order, failing the test on anything but a JSON object.
func noteKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("note is not a JSON object: %q", raw)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("note: %v", err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatalf("note value of %q: %v", tok, err)
		}
	}
	return keys
}

// setNotePath points -bench-note at path for the rest of the test.
func setNotePath(t *testing.T, path string) {
	t.Helper()
	old := benchNote
	benchNote = path
	t.Cleanup(func() { benchNote = old })
}

// captureStdout runs fn and returns what it wrote to os.Stdout.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	out := make(chan []byte, 1) // the reader never blocks if fn fails the test
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	func() {
		defer w.Close()
		fn()
	}()
	return <-out
}

// TestWriteNote: the shared header leads, the experiment's fields
// follow in declaration order, and the same bytes land in the
// -bench-note file or, without one, on stdout.
func TestWriteNote(t *testing.T) {
	fields := struct {
		Rows   []int   `json:"rows"`
		WallMS float64 `json:"wall_ms"`
	}{Rows: []int{1, 2}, WallMS: 3.5}
	want := []string{"experiment", "num_cpu", "go_version", "seed", "rows", "wall_ms"}

	path := filepath.Join(t.TempDir(), "note.json")
	setNotePath(t, path)
	printed := captureStdout(t, func() {
		if err := writeNote("demo", 9, fields); err != nil {
			t.Fatal(err)
		}
	})
	fromFile, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := noteKeys(t, fromFile); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("file note keys = %v, want %v", got, want)
	}
	if !strings.Contains(string(printed), "bench note written to "+path) {
		t.Errorf("stdout with -bench-note = %q, want the written-to line", printed)
	}

	setNotePath(t, "")
	fromStdout := captureStdout(t, func() {
		if err := writeNote("demo", 9, fields); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(fromStdout, fromFile) {
		t.Errorf("stdout note differs from file note:\n%s\nvs\n%s", fromStdout, fromFile)
	}

	var note struct {
		Experiment string  `json:"experiment"`
		NumCPU     int     `json:"num_cpu"`
		GoVersion  string  `json:"go_version"`
		Seed       uint64  `json:"seed"`
		Rows       []int   `json:"rows"`
		WallMS     float64 `json:"wall_ms"`
	}
	if err := json.Unmarshal(fromFile, &note); err != nil {
		t.Fatal(err)
	}
	if note.Experiment != "demo" || note.NumCPU < 1 || !strings.HasPrefix(note.GoVersion, "go") ||
		note.Seed != 9 || len(note.Rows) != 2 || note.WallMS != 3.5 {
		t.Errorf("note = %+v", note)
	}
}

// TestP7NoteHasNoModeledLatency runs a small fault-free p7 and checks
// its note: the shared header plus the loadsim Summary, and no key
// anywhere that carries a latency or queue figure or a regression
// object.
func TestP7NoteHasNoModeledLatency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p7.json")
	setNotePath(t, path)
	oldUsers, oldLive, oldShards, oldTicks, oldChaos := p7Users, p7Live, p7Shards, p7Ticks, p7Chaos
	t.Cleanup(func() { p7Users, p7Live, p7Shards, p7Ticks, p7Chaos = oldUsers, oldLive, oldShards, oldTicks, oldChaos })
	p7Users, p7Live, p7Shards, p7Ticks, p7Chaos = 200, 8, 2, 12, "none"

	captureStdout(t, func() {
		if err := runP7(5, "small"); err != nil {
			t.Fatalf("p7: %v", err)
		}
	})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"experiment", "num_cpu", "go_version", "seed", "summary"}
	if got := noteKeys(t, raw); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("p7 note keys = %v, want %v", got, want)
	}
	var note map[string]any
	if err := json.Unmarshal(raw, &note); err != nil {
		t.Fatal(err)
	}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		m, ok := v.(map[string]any)
		if !ok {
			return
		}
		for k, sub := range m {
			if k == "regression" || strings.HasPrefix(k, "latency_") || strings.HasPrefix(k, "queue_") {
				t.Errorf("p7 note carries %s%s", prefix, k)
			}
			walk(prefix+k+".", sub)
		}
	}
	walk("", note)
	summary, _ := note["summary"].(map[string]any)
	if _, ok := summary["misrouted_sessions"]; !ok {
		t.Errorf("p7 note summary lacks the fail-closed counters: %v", summary)
	}
}
