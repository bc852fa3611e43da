package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"time"
)

// span is one timed call across a layer boundary. Spans of one cell
// share Cell; Parent is the enclosing span's ID (-1 for a cell's root).
type span struct {
	Cell    int     `json:"cell"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartNS int64   `json:"start_ns"`
	EndNS   int64   `json:"end_ns"`
	AllocMB float64 `json:"alloc_mb"`
}

// layer is the span's layer: the name up to the first dot, or "bench"
// for the benchmark's own spans (cell, setup, check).
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return "bench"
}

// tracer records spans in memory; they are written out once, when the
// benchmark ends. A nil *tracer records nothing, which is how the
// untraced pass runs the same code.
type tracer struct {
	epoch time.Time
	cell  int
	spans []span
	open  []int // indices into spans of the spans not yet ended
	alloc []uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), cell: -1} }

// beginCell starts a new cell id; the next begin opens its root span.
func (t *tracer) beginCell() {
	if t != nil {
		t.cell++
	}
}

// nextCell is the id the next beginCell assigns (0 for a nil tracer).
func (t *tracer) nextCell() int {
	if t == nil {
		return 0
	}
	return t.cell + 1
}

// begin opens a span nested in the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.open = append(t.open, len(t.spans))
	t.alloc = append(t.alloc, totalAlloc())
	t.spans = append(t.spans, span{Cell: t.cell, ID: len(t.spans), Parent: parent, Name: name, StartNS: t.now()})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	s := &t.spans[t.open[n]]
	s.EndNS = t.now()
	s.AllocMB = float64(totalAlloc()-t.alloc[n]) / (1 << 20)
	t.open, t.alloc = t.open[:n], t.alloc[:n]
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// cellSpans returns the spans of cells first..last (inclusive).
func (t *tracer) cellSpans(first, last int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Cell >= first && s.Cell <= last {
			out = append(out, s)
		}
	}
	return out
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanMetrics turns spans into per-layer metrics: each call's summed
// duration as "<span name>_s" and allocation as "<span name>_alloc_mb",
// and each layer's self time (span durations minus the part their child
// spans cover) as "self.<layer>_s".
func spanMetrics(spans []span) map[string]float64 {
	m := map[string]float64{}
	child := map[int]int64{} // parent span id -> summed child duration
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for _, s := range spans {
		d := s.EndNS - s.StartNS
		m[s.Name+"_s"] += float64(d) / 1e9
		m[s.Name+"_alloc_mb"] += s.AllocMB
		m["self."+s.layer()+"_s"] += float64(d-child[s.ID]) / 1e9
	}
	return m
}

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
