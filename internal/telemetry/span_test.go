package telemetry

import (
	"bytes"
	"commintent/internal/simnet"
	"encoding/json"
	"strings"
	"testing"

	"commintent/internal/model"
)

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	h := tr.Begin(0, "x", "c", 10)
	h.End(20) // must not panic
	if tr.Ranks() != 0 || tr.Cap() != 0 || tr.Spans() != nil || tr.RankSpans(0) != nil || tr.Dropped(0) != 0 {
		t.Fatal("nil tracer leaked state")
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("nil WriteChromeTrace did not error")
	}
	// Out-of-range ranks behave like disabled handles.
	tr2 := NewTracer(2, 8)
	tr2.Begin(-1, "x", "c", 0).End(1)
	tr2.Begin(5, "x", "c", 0).End(1)
	if n := len(tr2.Spans()); n != 0 {
		t.Fatalf("out-of-range Begin recorded %d spans", n)
	}
}

func TestSpanNestingAndParents(t *testing.T) {
	tr := NewTracer(2, 16)
	outer := tr.Begin(1, "outer", "d", 100)
	inner := tr.Begin(1, "inner", "d", 110)
	inner.End(120)
	outer.End(200)
	spans := tr.RankSpans(1)
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	// Ring order is end order: inner finished first.
	if spans[0].Name != "inner" || spans[1].Name != "outer" {
		t.Fatalf("order: %v", spans)
	}
	if spans[0].Parent != spans[1].ID {
		t.Errorf("inner parent = %d, want outer ID %d", spans[0].Parent, spans[1].ID)
	}
	if spans[1].Parent != 0 {
		t.Errorf("outer parent = %d, want 0 (root)", spans[1].Parent)
	}
	if spans[0].Dur() != 10 || spans[1].Dur() != 100 {
		t.Errorf("durations: %v %v", spans[0].Dur(), spans[1].Dur())
	}
	// Sibling after the nest is a root again.
	sib := tr.Begin(1, "sibling", "d", 210)
	sib.End(220)
	if s := tr.RankSpans(1)[2]; s.Parent != 0 {
		t.Errorf("sibling parent = %d", s.Parent)
	}
	// Other ranks were untouched.
	if len(tr.RankSpans(0)) != 0 {
		t.Error("rank 0 recorded spans")
	}
}

func TestSpanEndClampsBackwardTime(t *testing.T) {
	tr := NewTracer(1, 4)
	h := tr.Begin(0, "x", "c", 50)
	h.End(40)
	if s := tr.RankSpans(0)[0]; s.End != s.Start || s.Dur() != 0 {
		t.Fatalf("backward end not clamped: %+v", s)
	}
}

func TestSpanRingWrapAndDropped(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := 0; i < 7; i++ {
		h := tr.Begin(0, "op", "c", model10(i))
		h.End(model10(i) + 5)
	}
	spans := tr.RankSpans(0)
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, cap 4", len(spans))
	}
	// Oldest first: spans 3..6 survive.
	for i, s := range spans {
		if s.Start != model10(i+3) {
			t.Fatalf("span %d start %v, want %v", i, s.Start, model10(i+3))
		}
	}
	if d := tr.Dropped(0); d != 3 {
		t.Fatalf("dropped = %d, want 3", d)
	}
}

func model10(i int) model.Time { return model.Time(i) * 10 }

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(2, 8)
	a := tr.Begin(0, "alpha", "cat", 1000)
	a.End(3500)
	b := tr.Begin(1, "beta", "cat", 2000)
	b.End(2000)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	meta, complete := 0, 0
	tids := map[int]bool{}
	for _, e := range out.TraceEvents {
		tids[e.TID] = true
		switch e.Ph {
		case "M":
			meta++
			if !strings.HasPrefix(e.Args["name"].(string), "rank ") {
				t.Errorf("metadata name = %v", e.Args["name"])
			}
		case "X":
			complete++
			if e.Dur < 0 {
				t.Errorf("negative duration on %s", e.Name)
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if meta != 2 || complete != 2 {
		t.Fatalf("meta=%d complete=%d", meta, complete)
	}
	if !tids[0] || !tids[1] {
		t.Fatalf("missing rank rows: %v", tids)
	}
	// Virtual ns scale to trace µs.
	for _, e := range out.TraceEvents {
		if e.Name == "alpha" {
			if e.TS != 1.0 || e.Dur != 2.5 {
				t.Errorf("alpha ts=%v dur=%v, want 1.0/2.5", e.TS, e.Dur)
			}
		}
	}
}

// TestBoundTracerMakesNoRecorder: telemetry for 256 ranks makes no span
// recorder of its own. Bound to a fabric, its spans go to the fabric's
// recorder; only a standalone tracer that records a span makes one.
func TestBoundTracerMakesNoRecorder(t *testing.T) {
	tele := New(256, 0)
	if tele.tr.rec.Load() != nil {
		t.Fatal("New made a span recorder before any span was recorded")
	}
	f := simnet.NewFabric(256)
	tele.BindFabric(f)
	tele.Tracer().Begin(3, "x", "test", 1).End(2)
	if got := tele.tr.rec.Load(); got == nil || got != f.Recorder() {
		t.Fatalf("bound tracer writes into %p, want the fabric's recorder %p", got, f.Recorder())
	}
	if n := len(f.Recorder().RankSpans(3)); n != 1 {
		t.Fatalf("fabric recorder holds %d spans of rank 3, want 1", n)
	}

	lone := NewTracer(4, 0)
	if lone.RankSpans(0) != nil || lone.Dropped(0) != 0 || lone.rec.Load() != nil {
		t.Fatal("reading an empty standalone tracer made a recorder")
	}
	lone.Begin(0, "y", "test", 0).End(1)
	if lone.rec.Load() == nil || len(lone.RankSpans(0)) != 1 {
		t.Fatal("a standalone tracer did not record its span into a recorder of its own")
	}
}
