package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Times are offsets from
// the tracer's start. Parent is the id of the span that caused this
// one (0 for a root); Req groups the spans of one request, run or grid
// point; Lane picks the row the span is drawn on in a trace viewer.
type span struct {
	ID, Parent, Req int64
	Name            string
	Lane            int
	Start, End      time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory. A nil *tracer records nothing, so
// untraced runs pay only a nil check at each boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span that has started but not ended.
type open struct {
	t *tracer
	s span
}

// begin starts a span now. On a nil tracer it returns a no-op handle
// whose id is 0.
func (t *tracer) begin(name string, parent, req int64, lane int) open {
	if t == nil {
		return open{}
	}
	return open{t: t, s: span{ID: t.newID(), Parent: parent, Req: req, Name: name, Lane: lane, Start: time.Since(t.t0)}}
}

// id returns the span's id, for use as a child's parent.
func (o open) id() int64 { return o.s.ID }

// end closes the span now and records it.
func (o open) end() { o.endAt(time.Now()) }

// endAt closes the span at w and records it.
func (o open) endAt(w time.Time) {
	if o.t == nil {
		return
	}
	o.s.End = o.t.at(w)
	o.t.add(o.s)
}

func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// at converts a wall-clock instant to the tracer's offset.
func (t *tracer) at(w time.Time) time.Duration { return w.Sub(t.t0) }

// add records a finished span, assigning it an id when it has none.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	t.spans = append(t.spans, s)
}

// snapshot returns a copy of the recorded spans ordered by start.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// named returns the spans called name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// interval is a half-open time interval.
type interval struct{ lo, hi time.Duration }

// unionLen returns the total length covered by ivs, counting overlaps
// once.
func unionLen(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi - cur.lo
}

// selfTime is a span's duration minus the part of it its children
// cover (overlapping children count once; parts of a child outside
// the parent do not count).
func selfTime(parent span, children []span) time.Duration {
	var ivs []interval
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	return parent.dur() - unionLen(ivs)
}

// writeChromeTrace writes spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps), which Perfetto and
// chrome://tracing open.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		ev := event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
