package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// spanLog records the benchmark's own wall-clock spans around each
// public call of one workload run. Spans stay in memory and are written
// out when the run ends. A nil *spanLog records nothing.
type spanLog struct {
	// run identifies the workload run every span belongs to.
	run    string
	origin time.Time
	spans  []wallSpan
}

type wallSpan struct {
	ID, Parent int
	Name       string
	// Start and End are nanoseconds since the run began.
	Start, End int64
}

func newSpanLog(run string) *spanLog {
	return &spanLog{run: run, origin: time.Now()}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, wallSpan{ID: len(l.spans), Parent: parent, Name: name, Start: l.since(time.Now()), End: -1})
	return len(l.spans) - 1
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].End = l.since(time.Now())
}

// add records a span whose bounds were taken elsewhere.
func (l *spanLog) add(name string, start, end time.Time, parent int) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, wallSpan{ID: len(l.spans), Parent: parent, Name: name, Start: l.since(start), End: l.since(end)})
}

func (l *spanLog) since(t time.Time) int64 { return t.Sub(l.origin).Nanoseconds() }

// writeChrome writes the spans as Chrome trace events (Perfetto loads
// them); the run id, span id and parent id ride in args.
func (l *spanLog) writeChrome(w io.Writer) error {
	type event struct {
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Name string         `json:"name"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %q (id %d) never ended", s.Name, s.ID)
		}
		events = append(events, event{
			Ph: "X", Pid: 1, Tid: 1, Name: s.Name,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"run": l.run, "id": s.ID, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
}
