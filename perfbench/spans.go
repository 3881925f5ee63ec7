package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, when it ran, the span
// that caused it (0 = root) and the request it belongs to (0 = none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.  A nil recorder
// records nothing, so untraced code paths pay one nil check per call.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, req int64) int64 {
	if r == nil {
		return 0
	}
	start := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start})
	return id
}

// end closes span id.
func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	end := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once; a child running past its parent counts only inside it).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, curStart, curEnd int64
		open := false
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if open && a <= curEnd {
				curEnd = max(curEnd, b)
				continue
			}
			if open {
				covered += curEnd - curStart
			}
			curStart, curEnd, open = a, b, true
		}
		if open {
			covered += curEnd - curStart
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}
