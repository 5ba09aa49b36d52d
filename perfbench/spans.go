package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"trident/internal/trace"
)

// span is one timed call the benchmark made into a layer: name, interval,
// the span that caused it (0 for a root) and the request or batch it
// belongs to.
type span struct {
	id, parent int
	name       string
	req        int64
	start, end time.Duration // relative to the tracer's epoch
}

// tracer keeps spans in memory for the traced run. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns a function that closes it and yields its
// id (for children) — children may be recorded before their parent closes.
func (t *tracer) begin(name string, parent int, req int64) (id int, end func() time.Duration) {
	if t == nil {
		start := time.Now()
		return 0, func() time.Duration { return time.Since(start) }
	}
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, req: req, start: time.Since(t.epoch)})
	t.mu.Unlock()
	return id, func() time.Duration {
		now := time.Since(t.epoch)
		t.mu.Lock()
		s := &t.spans[id-1]
		s.end = now
		d := s.end - s.start
		t.mu.Unlock()
		return d
	}
}

// durations returns the durations of every closed span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name && s.end > 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerRow is one line of the per-layer table: every span of one name,
// with its total and self time. Self time is a span's duration minus the
// part of its interval covered by its children.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
	p50         time.Duration
}

// selfTime returns s's duration minus the union of its children's
// intervals, clipped to s.
func selfTime(s span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := c.start, c.end
		if a < s.start {
			a = s.start
		}
		if b > s.end {
			b = s.end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return s.end - s.start - covered
}

// layerTable aggregates spans by name, sorted by self time descending.
func layerTable(spans []span) []layerRow {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 && s.end > 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	rows := map[string]*layerRow{}
	durs := map[string][]time.Duration{}
	for _, s := range spans {
		if s.end == 0 {
			continue
		}
		r := rows[s.name]
		if r == nil {
			r = &layerRow{name: s.name}
			rows[s.name] = r
		}
		r.count++
		r.total += s.end - s.start
		r.self += selfTime(s, kids[s.id])
		durs[s.name] = append(durs[s.name], s.end-s.start)
	}
	out := make([]layerRow, 0, len(rows))
	for name, r := range rows {
		r.p50 = percentile(sortedCopy(durs[name]), 50)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// writeTable prints the per-layer table.
func writeTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-28s %9s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "p50_us")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %9d %12.3f %12.3f %10.1f\n",
			r.name, r.count, ms(r.total, 0), ms(r.self, 0), us(r.p50))
	}
}

// maxTraceEvents bounds the Chrome trace file; the table still covers
// every span.
const maxTraceEvents = 50000

// writeChrome writes the spans as a Chrome trace (the internal/trace
// container): one row per request or batch id.
func writeChrome(w io.Writer, spans []span) error {
	f := trace.File{DisplayUnit: "ms"}
	for _, s := range spans {
		if s.end == 0 {
			continue
		}
		if len(f.TraceEvents) == maxTraceEvents {
			break
		}
		cat := s.name
		if i := strings.IndexByte(cat, '.'); i > 0 {
			cat = cat[:i]
		}
		f.TraceEvents = append(f.TraceEvents, trace.Event{
			Name: s.name, Category: cat, Phase: "X",
			TsMicros: us(s.start), DurMicro: us(s.end - s.start),
			PID: 1, TID: int(s.req),
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// dumpTrace writes <prefix>.trace.json and <prefix>.layers.txt.
func dumpTrace(t *tracer, prefix string) error {
	spans := t.snapshot()
	f, err := os.Create(prefix + ".trace.json")
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	var sb strings.Builder
	writeTable(&sb, layerTable(spans))
	return os.WriteFile(prefix+".layers.txt", []byte(sb.String()), 0o644)
}
