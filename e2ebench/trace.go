package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced interval: an op the closed loop ran, or a replayed
// call into one layer of the engine. Spans of one op share its op id.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// layer is the module a span's time belongs to: its name up to the first
// dot ("jpeg.decode" -> "jpeg").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// record adds a finished span and returns its id.
func (t *tracer) record(name string, op, parent int, start, end time.Time, counts map[string]float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(clock.since(start)), End: int64(clock.since(end)),
		Counts: counts,
	})
	return id
}

// timed runs fn inside a span and returns fn's error.
func (t *tracer) timed(name string, op, parent int, fn func() error) error {
	start := time.Now()
	err := fn()
	t.record(name, op, parent, start, time.Now(), nil)
	return err
}

// open starts a span whose end is filled in later by close; used for
// parents whose children are recorded while it runs.
func (t *tracer) open(name string, op, parent int) int {
	now := time.Now()
	return t.record(name, op, parent, now, now, nil)
}

// close sets the end of a span opened with open.
func (t *tracer) close(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(clock.since(time.Now()))
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval its child spans cover.
func (t *tracer) selfTimes() map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// engineLayers are the program's modules the replay spans time.
var engineLayers = []string{"jpeg", "preproc", "nn", "engine", "vid", "store", "blazeit"}

// layerBusy sums the self time of the replay spans per engine layer.
func (t *tracer) layerBusy() map[string]time.Duration {
	self := t.selfTimes()
	busy := make(map[string]time.Duration)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		busy[s.layer()] += self[s.ID]
	}
	return busy
}

// write stores the spans and the run's summary as JSON at path.
func (t *tracer) write(path string, summary any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"summary": summary, "spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
