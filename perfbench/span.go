package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API. Spans of one op
// share Op; Parent is the id of the span whose interval caused this
// one (0 for an op span or a set-up/lane span with no caller). Times
// are nanoseconds since the tracer started.
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Kind   string `json:"kind"` // "setup", "op" or "lane"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Work is the span's unit count where it has one (records
	// replayed, say); the per-reference rates divide by it.
	Work int64 `json:"work,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// opSpan names the span that brackets one whole op.
const opSpan = "op"

// tracer keeps every span of a run in memory; ops flush into it when
// they finish, so the only shared state is one append under a lock.
// Counts are the exact simulated outputs an op reports (last op wins:
// the pins make every op's counts identical).
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
	nextID int64
	nextOp int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// rec is one op's span recorder. A nil *rec records nothing, so the
// untraced path calls the same code with no tracing cost beyond a nil
// check. A rec is used by one goroutine at a time.
type rec struct {
	t      *tracer
	kind   string
	op     int64
	parent int64 // innermost open span; new spans nest under it
	spans  []span
	counts map[string]float64
}

// newRec starts the recorder for one op, set-up or lane run; kind
// labels its spans.
func (t *tracer) newRec(kind string) *rec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextOp++
	op := t.nextOp
	t.mu.Unlock()
	return &rec{t: t, kind: kind, op: op, counts: map[string]float64{}}
}

func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// begin opens a span under the innermost open one and returns the
// function that closes it with a work count.
func (r *rec) begin(name string) func(work int64) {
	if r == nil {
		return func(int64) {}
	}
	s := span{Op: r.op, ID: r.t.id(), Parent: r.parent, Name: name, Kind: r.kind, Start: int64(time.Since(r.t.t0))}
	prev := r.parent
	r.parent = s.ID
	return func(work int64) {
		s.End = int64(time.Since(r.t.t0))
		s.Work = work
		r.parent = prev
		r.spans = append(r.spans, s)
	}
}

// do times fn as a span named name.
func (r *rec) do(name string, fn func() error) error {
	end := r.begin(name)
	err := fn()
	end(0)
	return err
}

// count records an exact simulated output of the op.
func (r *rec) count(name string, v float64) {
	if r != nil {
		r.counts[name] = v
	}
}

// flush hands the op's spans and counts to the tracer.
func (r *rec) flush() {
	if r == nil {
		return
	}
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, r.spans...)
	// Set-up captures are not the workload's ops; only ops and lanes
	// report counts.
	if r.kind != "setup" {
		for k, v := range r.counts {
			r.t.counts[k] = v
		}
	}
	r.t.mu.Unlock()
	r.spans = nil
}

// snapshot returns a copy of the recorded spans, ordered by start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func (t *tracer) countsCopy() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover (overlapping children
// are counted once, and a child's part outside the parent not at all).
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		if open && v[0] <= curHi {
			curHi = max(curHi, v[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v[0], v[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// coverFloor is the share of an op span its child spans should cover:
// what is left is harness bookkeeping and host scheduling between
// calls, time no layer can be charged with.
const coverFloor = 0.95

// coveredShare is the share of op spans whose child spans cover at
// least coverFloor of them; 1 when there are none.
func coveredShare(spans []span) float64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	ops, ok := 0, 0
	for _, s := range spans {
		if s.Name != opSpan {
			continue
		}
		ops++
		if float64(covered(s, kids[s.ID])) >= coverFloor*float64(s.dur()) {
			ok++
		}
	}
	if ops == 0 {
		return 1
	}
	return float64(ok) / float64(ops)
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name   string
	Count  int
	SelfMS float64
	Share  float64 // of the table's total self time
	P50MS  float64 // median span duration
}

// selfTable sums self time by span name. Self times partition the
// root spans' time, so the shares add up to 1 and, for op spans, say
// where the op time went.
func selfTable(spans []span) []selfRow {
	self := selfTimes(spans)
	var total float64
	byName := map[string]*selfRow{}
	durs := map[string][]float64{}
	for _, s := range spans {
		total += float64(self[s.ID]) / 1e6
		r := byName[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Count++
		r.SelfMS += float64(self[s.ID]) / 1e6
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
	}
	rows := make([]selfRow, 0, len(byName))
	for name, r := range byName {
		if total > 0 {
			r.Share = r.SelfMS / total
		}
		r.P50MS = median(durs[name])
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMS != rows[j].SelfMS {
			return rows[i].SelfMS > rows[j].SelfMS
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

func writeSelfTable(w io.Writer, title string, rows []selfRow) {
	fmt.Fprintf(w, "self time, %s\n", title)
	fmt.Fprintf(w, "  %-28s %7s %11s %7s %9s\n", "span", "count", "self ms", "share", "p50 ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %7d %11.1f %6.1f%% %9.3f\n", r.Name, r.Count, r.SelfMS, 100*r.Share, r.P50MS)
	}
}

// writeSpans writes one JSON object per span.
func writeSpans(w io.Writer, workload string, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			span
		}{workload, s}); err != nil {
			return err
		}
	}
	return nil
}
