package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Spans are recorded by the harness around its calls into each layer, kept in
// memory, and written out when the workload ends. A nil *spanBuf records
// nothing, which is the untraced run.

type span struct {
	Client int    `json:"client"`
	Op     int    `json:"op_id"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: the op's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanBuf holds the spans of one client; only that client's goroutine uses it.
type spanBuf struct {
	t0     time.Time
	client int
	spans  []span
}

func newSpanBuf(t0 time.Time, client int) *spanBuf { return &spanBuf{t0: t0, client: client} }

// begin opens a span and returns its id for end and for its children.
func (b *spanBuf) begin(op int, name string, parent int) int {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{Client: b.client, Op: op, ID: len(b.spans), Parent: parent, Name: name, Start: int64(time.Since(b.t0))})
	return len(b.spans) - 1
}

func (b *spanBuf) end(id int) {
	if b != nil {
		b.spans[id].End = int64(time.Since(b.t0))
	}
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	count int
	total time.Duration
	self  time.Duration // total minus the part child spans cover
}

// selfTimes sums, per span name, duration and self time: a span's duration
// minus the union of its direct children's intervals.
func selfTimes(bufs []*spanBuf) map[string]*layerTime {
	out := map[string]*layerTime{}
	for _, b := range bufs {
		if b == nil {
			continue
		}
		kids := make(map[int][]int, len(b.spans))
		for _, s := range b.spans {
			if s.Parent >= 0 {
				kids[s.Parent] = append(kids[s.Parent], s.ID)
			}
		}
		for _, s := range b.spans {
			ch := kids[s.ID]
			sort.Slice(ch, func(i, j int) bool { return b.spans[ch[i]].Start < b.spans[ch[j]].Start })
			var covered int64
			at := s.Start
			for _, id := range ch {
				c := b.spans[id]
				lo, hi := max(c.Start, at), min(c.End, s.End)
				if hi > lo {
					covered += hi - lo
					at = hi
				}
			}
			lt := out[s.Name]
			if lt == nil {
				lt = &layerTime{}
				out[s.Name] = lt
			}
			lt.count++
			lt.total += time.Duration(s.End - s.Start)
			lt.self += time.Duration(s.End - s.Start - covered)
		}
	}
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, b := range bufs {
		if b == nil {
			continue
		}
		for i := range b.spans {
			if err := enc.Encode(&b.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
