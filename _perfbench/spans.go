package main

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// span is one harness-recorded interval around a call into a layer's
// public function. Spans live in memory and are written out once, at
// the end of a traced run.
type span struct {
	ID     int
	Parent int // 0 for a root span
	Name   string
	Lane   int // Chrome-trace row: concurrent clients get their own
	Start  time.Time
	End    time.Time
}

// spans is the harness's span recorder. A nil *spans records nothing,
// so the untraced run pays one nil check per call site.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// start opens a span under parent (0 for a root) on the parent's lane
// and returns its ID.
func (s *spans) start(parent int, name string) int {
	return s.startLane(parent, name, -1)
}

// startLane is start with an explicit Chrome-trace lane; a negative
// lane inherits the parent's.
func (s *spans) startLane(parent int, name string, lane int) int {
	if s == nil {
		return 0
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if lane < 0 {
		lane = 0
		if parent != 0 {
			lane = s.list[parent-1].Lane
		}
	}
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, Lane: lane, Start: now})
	return len(s.list)
}

// end closes the span with the given ID.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.list[id-1].End = now
	s.mu.Unlock()
}

// spanTotals is the per-name aggregate of a span set.
type spanTotals struct {
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

// totals aggregates every ended span by name. A span's self time is
// its duration minus the part of its interval that its children
// cover; children may overlap each other (concurrent clients), so the
// covered part is the union of their intervals clipped to the parent.
func (s *spans) totals() map[string]spanTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	children := map[int][]span{}
	for _, sp := range s.list {
		if sp.Parent != 0 && !sp.End.IsZero() {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := map[string]spanTotals{}
	for _, sp := range s.list {
		if sp.End.IsZero() {
			continue
		}
		d := sp.End.Sub(sp.Start)
		t := out[sp.Name]
		t.Count++
		t.Total += d
		t.Self += d - covered(sp, children[sp.ID])
		out[sp.Name] = t
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// chromeTrace renders the spans as Chrome trace-event JSON (loadable
// in Perfetto or chrome://tracing). Each complete event carries the
// span's ID and its parent's ID in args.
func (s *spans) chromeTrace() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(s.list))
	for _, sp := range s.list {
		if sp.End.IsZero() {
			continue
		}
		events = append(events, event{
			Name: sp.Name, Ph: "X", PID: 1, TID: sp.Lane,
			TS:   float64(sp.Start.Sub(s.epoch).Nanoseconds()) / 1e3,
			Dur:  float64(sp.End.Sub(sp.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": sp.ID, "parent": sp.Parent},
		})
	}
	return json.Marshal(map[string]interface{}{"traceEvents": events, "displayTimeUnit": "ms"})
}
