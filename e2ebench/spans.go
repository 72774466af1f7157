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

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"` // 0: a root span
	Op     int64         `json:"op"`               // the op (or unit) the span belongs to
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the recorder was created
	End    time.Duration `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the traced run ends. A nil
// recorder records nothing, so untraced runs pay only a nil check. It is
// safe for concurrent use (campaign workers record from the pool).
type spanRecorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// start opens a span and returns its id (0 on a nil recorder).
func (r *spanRecorder) start(name string, parent int, op int64) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(r.spans)
}

// end closes the span with the given id.
func (r *spanRecorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an already finished span that began at t0.
func (r *spanRecorder) add(name string, parent int, op int64, t0, t1 time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: t0.Sub(r.epoch), End: t1.Sub(r.epoch)})
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Count int
	Total time.Duration
	// Self is Total minus the part of each span's interval its child
	// spans cover.
	Self      time.Duration
	Durations []float64 // ms, in recording order
}

// summary folds the recorded spans by name.
func (r *spanRecorder) summary() map[string]*spanStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*spanStat{}
	for _, s := range r.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += d - covered(s, children[s.ID])
		st.Durations = append(st.Durations, float64(d)/float64(time.Millisecond))
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur := parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < cur {
			lo = cur
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// write dumps every span as one JSON object per line.
func (r *spanRecorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
