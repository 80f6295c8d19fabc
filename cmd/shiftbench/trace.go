package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Span names. A span's parent is named, not numbered: spans of one
// request share its req id, so (req, parent) picks out the parent span.
const (
	spanNone       = iota
	spanClient     // one HTTP request, send to response read
	spanHandler    // Handler.ServeHTTP inside the server
	spanWrite      // one Insert or Delete on the primary
	spanPublish    // one Publisher.Publish
	spanSync       // one Replica.Sync that installed nothing
	spanInstall    // one Replica.Sync that installed a version
	spanCompact    // a compaction, seen by polling Compacting()
	spanGC         // a 1 ms poll window in which a GC cycle completed
	spanFindBlock  // one 64Ki-lookup segment of scalar Find calls
	spanFindBatch  // one 64Ki-lookup segment of 256-lane FindBatchTagged calls
	spanVerify     // the post-window verification pass
	spanNamesCount // keep last
)

var spanNames = [spanNamesCount]string{
	"", "client", "handler", "write", "publish", "sync", "sync.install",
	"compact", "gc", "find_block", "find_batch", "verify",
}

// span is kept in preallocated memory during a traced run: 32 bytes, no
// pointers, so recording one allocates nothing and the GC never scans
// the buffer.
type span struct {
	start, end   int64 // ns since the tracer's epoch
	req          int64 // request id (0 for background spans)
	name, parent uint8
}

// tracer records spans into a fixed buffer. A nil *tracer records
// nothing, which is how untraced runs pay for none of it.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// add records one span; safe from any goroutine.
func (t *tracer) add(name, parent uint8, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)),
		req: req, name: name, parent: parent,
	}
}

// recorded returns the spans added so far. Call it after every recording
// goroutine has stopped.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	return t.spans[:min(t.n.Load(), int64(len(t.spans)))]
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent string `json:"parent"`
		Req    int64  `json:"req"`
	}
	for _, s := range t.recorded() {
		if err := enc.Encode(line{spanNames[s.name], s.start, s.end, spanNames[s.parent], s.req}); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// byName returns the recorded spans with the given name.
func byName(spans []span, name uint8) []span {
	var out []span
	for _, s := range spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// meanDur is the mean span length in the given unit (0 when empty).
func meanDur(spans []span, unit time.Duration) float64 {
	if len(spans) == 0 {
		return 0
	}
	var sum int64
	for _, s := range spans {
		sum += s.end - s.start
	}
	return float64(sum) / float64(len(spans)) / float64(unit)
}
