package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"trident/internal/trace"
)

func TestSelfTimeSubtraction(t *testing.T) {
	ms := time.Millisecond
	parent := span{id: 1, start: 0, end: 100 * ms}
	children := []span{
		{start: 10 * ms, end: 30 * ms},
		{start: 20 * ms, end: 40 * ms},   // overlaps the first: union 10–40
		{start: 90 * ms, end: 120 * ms},  // clipped to the parent: 90–100
		{start: 150 * ms, end: 160 * ms}, // outside the parent
	}
	if got := selfTime(parent, children); got != 60*ms {
		t.Fatalf("self time %v, want 60ms (100 − 30 − 10)", got)
	}
	if got := selfTime(parent, nil); got != 100*ms {
		t.Fatalf("childless self time %v, want the whole span", got)
	}
}

func TestLayerTableSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, name: "step", start: 0, end: 10 * ms},
		{id: 2, parent: 1, name: "graph.train_batch", start: 1 * ms, end: 7 * ms},
		{id: 3, parent: 1, name: "graph.forward_batch", start: 7 * ms, end: 9 * ms},
		{id: 4, name: "step", start: 10 * ms, end: 20 * ms},
		{id: 5, parent: 4, name: "graph.train_batch", start: 10 * ms, end: 20 * ms},
		{id: 6, name: "open"}, // never closed: ignored
	}
	rows := map[string]layerRow{}
	for _, r := range layerTable(spans) {
		rows[r.name] = r
	}
	if len(rows) != 3 {
		t.Fatalf("rows %v", rows)
	}
	if r := rows["step"]; r.count != 2 || r.total != 20*ms || r.self != 2*ms {
		t.Fatalf("step row %+v, want 2 spans, 20ms total, 2ms self", r)
	}
	if r := rows["graph.train_batch"]; r.self != 16*ms || r.p50 != 6*ms {
		t.Fatalf("train row %+v, want 16ms self, 6ms p50", r)
	}
}

func TestTracerRecordsParentsAndWritesChromeTrace(t *testing.T) {
	tr := newTracer()
	root, endRoot := tr.begin("server.handler", 0, 7)
	_, endChild := tr.begin("router.submit", root, 7)
	time.Sleep(time.Millisecond)
	endChild()
	endRoot()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].parent != root || spans[1].req != 7 {
		t.Fatalf("spans %+v", spans)
	}
	if got := tr.durations("router.submit"); len(got) != 1 || got[0] < time.Millisecond {
		t.Fatalf("durations %v", got)
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var f trace.File
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if len(f.TraceEvents) != 2 || f.TraceEvents[0].Phase != "X" || f.TraceEvents[1].Category != "router" || f.TraceEvents[0].TID != 7 {
		t.Fatalf("trace %+v", f)
	}
	// A nil tracer records nothing but still times the call.
	var none *tracer
	_, end := none.begin("x", 0, 0)
	if end() < 0 || none.snapshot() != nil || none.durations("x") != nil {
		t.Fatal("nil tracer must be inert")
	}
}
