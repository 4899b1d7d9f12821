package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/sinet-io/sinet/internal/tracing"
)

// span is one recorded interval: the benchmark's own spans around calls
// into a layer, and the program's spans read back through
// tracing.Tracer.Trace, share this form.
type span struct {
	Trace   string            `json:"trace_id"`
	ID      string            `json:"span_id"`
	Parent  string            `json:"parent_id,omitempty"`
	Name    string            `json:"name"`
	Service string            `json:"service"`
	Start   time.Time         `json:"start"`
	Dur     time.Duration     `json:"duration_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

func (s span) end() time.Time { return s.Start.Add(s.Dur) }

func (s span) ms() float64 { return ms(s.Dur) }

// fromJSON converts a span exported by the program's tracer.
func fromJSON(j tracing.SpanJSON) span {
	start, _ := time.Parse(time.RFC3339Nano, j.Start)
	s := span{Trace: j.TraceID, ID: j.SpanID, Parent: j.ParentID, Name: j.Name, Service: j.Service,
		Start: start, Dur: time.Duration(j.DurationMS * float64(time.Millisecond))}
	if len(j.Attrs) > 0 {
		s.Attrs = map[string]string{}
		for _, a := range j.Attrs {
			s.Attrs[a.Key] = a.Value
		}
	}
	return s
}

// spanStore keeps every span of a traced run in memory until the run
// writes them out as one JSON file.
type spanStore struct {
	mu    sync.Mutex
	spans []span
}

func newSpanStore() *spanStore { return &spanStore{} }

func (st *spanStore) add(spans ...span) {
	st.mu.Lock()
	st.spans = append(st.spans, spans...)
	st.mu.Unlock()
}

// addTrace reads one trace back from each tracer.
func (st *spanStore) addTrace(id tracing.TraceID, tracers ...*tracing.Tracer) []span {
	var out []span
	for _, tr := range tracers {
		for _, j := range tr.Trace(id) {
			out = append(out, fromJSON(j))
		}
	}
	st.add(out...)
	return out
}

func (st *spanStore) all() []span {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]span(nil), st.spans...)
}

// named returns the durations in ms of every stored span with the name.
func (st *spanStore) named(name string) []float64 {
	var out []float64
	for _, s := range st.all() {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// write stores every span, sorted by start, as one JSON array.
func (st *spanStore) write(path string) error {
	spans := st.all()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTime is a span's duration minus the part of its interval that its
// children's spans cover (overlapping children count once).
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.end()
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.end()) {
			b = parent.end()
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return parent.Dur - covered
}

// childrenOf returns the spans whose parent is id.
func childrenOf(spans []span, id string) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}
