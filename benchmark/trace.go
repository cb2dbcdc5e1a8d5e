package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded from outside the program under
// test: around a cell, one of its phases, or a layer driver. Parent is
// the id of the span that caused it (-1 for a root); the phases of a
// cell share its Cell index (-1 outside cells).
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"`
	Cell    int            `json:"cell"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"` // wall clock, Unix microseconds
	DurUS   float64        `json:"dur_us"`   // monotonic clock
	Args    map[string]any `json:"args,omitempty"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing; the untraced runs pass nil.
type tracer struct{ spans []span }

// add records a finished interval and returns its id.
func (t *tracer) add(name string, parent, cell int, start time.Time, dur time.Duration, args map[string]any) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Cell: cell, Name: name,
		StartUS: start.UnixMicro(), DurUS: float64(dur.Nanoseconds()) / 1e3, Args: args,
	})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, parent int, start time.Time) int {
	return t.add(name, parent, -1, start, 0, nil)
}

func (t *tracer) close(id int, dur time.Duration) {
	if t != nil {
		t.spans[id].DurUS = float64(dur.Nanoseconds()) / 1e3
	}
}

// cell records one executed cell and its phases, with the cell's exact
// work counts attached. The intervals are the ones runCell measured.
func (t *tracer) cell(parent, idx int, c cellSpec, res cellResult) {
	if t == nil {
		return
	}
	r := res.Report
	id := t.add("cell:"+c.String(), parent, idx, res.Start, res.Total, map[string]any{
		"sim_cycles":  r.MakespanCycles,
		"commits":     r.Commits(),
		"hw_attempts": r.HWAttempts,
		"hw_aborts":   r.HTM.Aborts,
		"fallbacks":   r.Fallbacks,
	})
	at := res.Start
	for ph, d := range res.Phases {
		t.add(phaseNames[ph], id, idx, at, d, nil)
		at = at.Add(d)
	}
}

// adopt appends spans recorded by a child process under parent, keeping
// their internal parent links.
func (t *tracer) adopt(spans []span, parent int) {
	off := len(t.spans)
	for _, s := range spans {
		s.ID += off
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as one Chrome trace-event document. Times
// are microseconds from the first span; id, parent and cell travel in
// args so the tree can be rebuilt without relying on time containment.
func (t *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, 0, len(t.spans))
	var origin int64
	if len(t.spans) > 0 {
		origin = t.spans[0].StartUS
	}
	for _, s := range t.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Cell >= 0 {
			args["cell"] = s.Cell
		}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "bench", Ph: "X",
			TS: float64(s.StartUS - origin), Dur: s.DurUS, PID: 1, TID: 1, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return writeFile(path, data)
}

// writeFile writes data to path, creating the directory first.
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
