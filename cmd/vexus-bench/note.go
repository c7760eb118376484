package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// noteHeader is the part of every -bench-note JSON shared by all
// experiments; the experiment's own fields follow it.
type noteHeader struct {
	Experiment string `json:"experiment"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Seed       uint64 `json:"seed"`
}

// writeNote emits one experiment's JSON note: the shared header, then
// the keys of fields (a struct or map marshalling to a JSON object),
// in that order. The note goes to the -bench-note path when set and
// to stdout otherwise.
func writeNote(experiment string, seed uint64, fields any) error {
	head, err := json.Marshal(noteHeader{
		Experiment: experiment,
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Seed:       seed,
	})
	if err != nil {
		return err
	}
	body, err := json.Marshal(fields)
	if err != nil {
		return err
	}
	if len(body) > 2 { // splice "{h...}" and "{f...}" into "{h...,f...}"
		head = append(append(head[:len(head)-1], ','), body[1:]...)
	}
	var enc bytes.Buffer
	if err := json.Indent(&enc, head, "", "  "); err != nil {
		return err
	}
	enc.WriteByte('\n')
	if benchNote == "" {
		_, err := os.Stdout.Write(enc.Bytes())
		return err
	}
	if err := os.WriteFile(benchNote, enc.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("bench note written to %s\n", benchNote)
	return nil
}
