package telemetry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"testing"
)

// ChromeTrace is the test-side oracle for the Chrome encoder: it builds the
// document as []ChromeEvent values, which encoding/json then marshals. Each
// distinct track becomes one thread (tid assigned by sorted track name,
// announced with a thread_name metadata event); spans are emitted in
// ascending start order, negative starts and durations clamped to 0.
func ChromeTrace(spans []Span) []ChromeEvent {
	return ChromeTraceMeta(spans, TraceMeta{})
}

// ChromeTraceMeta is ChromeTrace plus document metadata (process name,
// dropped-span accounting).
func ChromeTraceMeta(spans []Span, meta TraceMeta) []ChromeEvent {
	tracks := map[string]int{}
	for _, s := range spans {
		tracks[s.Track] = 0
	}
	names := make([]string, 0, len(tracks))
	for name := range tracks {
		names = append(names, name)
	}
	sort.Strings(names)
	events := make([]ChromeEvent, 0, len(spans)+len(names)+2)
	if meta.Process != "" {
		events = append(events, ChromeEvent{
			Name: "process_name", Ph: "M", Pid: chromePid,
			Args: map[string]string{"name": meta.Process},
		})
	}
	if meta.DroppedSpans != 0 {
		events = append(events, ChromeEvent{
			Name: "trace.dropped_spans", Ph: "M", Pid: chromePid,
			Args: map[string]string{"dropped": strconv.FormatInt(meta.DroppedSpans, 10)},
		})
	}
	for i, name := range names {
		tracks[name] = i + 1
		events = append(events, ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: i + 1,
			Args: map[string]string{"name": name},
		})
	}
	ordered := append([]Span(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Start < ordered[j].Start })
	for _, s := range ordered {
		ev := ChromeEvent{
			Name: s.Name, Ph: "X", Ts: max(s.Start, 0), Dur: max(s.Dur, 0),
			Pid: chromePid, Tid: tracks[s.Track],
		}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		events = append(events, ev)
	}
	return events
}

// chromeTestSpans are the span sets the tests below render; FuzzChromeTrace
// starts from them.
var chromeTestSpans = [][]Span{
	{
		{Track: "comp[r0,c0,FP]", Name: "NDCONV", Start: 10, Dur: 40},
		{Track: "comp[r0,c0,FP]", Name: "STALL", Start: 50, Dur: 0,
			Attrs: []Attr{{Key: "note", Value: "read on tracker"}}},
		{Track: "comp[r0,c1,FP]", Name: "DMALOAD", Start: 5, Dur: 12},
	},
	{
		{Track: "a", Name: "x", Start: 0, Dur: 1},
		{Track: "b", Name: "y", Start: 0, Dur: 1},
	},
	{{Track: "t", Name: "n", Start: -5, Dur: -1}},
	{{Track: "t", Name: "n", Start: 0, Dur: 1, Attrs: []Attr{{Key: "k", Value: "v"}}}},
}

func TestChromeTraceJSONRoundTrip(t *testing.T) {
	spans := chromeTestSpans[0]
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, buf.String())
	}
	var xEvents, mEvents int
	for _, ev := range events {
		ts, _ := ev["ts"].(float64)
		dur, _ := ev["dur"].(float64)
		if ts < 0 || dur < 0 {
			t.Fatalf("negative ts/dur: %v", ev)
		}
		switch ev["ph"] {
		case "X":
			xEvents++
		case "M":
			mEvents++
			if ev["name"] != "thread_name" {
				t.Fatalf("unexpected metadata event %v", ev)
			}
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	if xEvents != 3 {
		t.Fatalf("complete events = %d, want 3", xEvents)
	}
	if mEvents != 2 {
		t.Fatalf("thread_name events = %d, want 2 (one per track)", mEvents)
	}
}

func TestChromeTraceTracksGetDistinctTids(t *testing.T) {
	events := ChromeTrace(chromeTestSpans[1])
	tids := map[string]int{}
	for _, ev := range events {
		if ev.Ph == "M" {
			tids[ev.Args["name"]] = ev.Tid
		}
	}
	if tids["a"] == tids["b"] || tids["a"] == 0 || tids["b"] == 0 {
		t.Fatalf("tids = %v", tids)
	}
}

func TestChromeTraceClampsNegatives(t *testing.T) {
	events := ChromeTrace(chromeTestSpans[2])
	for _, ev := range events {
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Fatalf("negative values not clamped: %+v", ev)
		}
	}
}

func TestChromeTraceAttrsBecomeArgs(t *testing.T) {
	events := ChromeTrace(chromeTestSpans[3])
	found := false
	for _, ev := range events {
		if ev.Ph == "X" && ev.Args["k"] == "v" {
			found = true
		}
	}
	if !found {
		t.Fatal("span attrs not rendered into args")
	}
}

// appendFuzzString writes s as FuzzChromeTrace reads it back: one length
// byte, then the bytes.
func appendFuzzString(dst []byte, s string) []byte {
	if len(s) > 255 {
		s = s[:255]
	}
	return append(append(dst, byte(len(s))), s...)
}

// fuzzSpanBytes encodes spans in the layout fuzzSpans decodes, so the
// fuzz corpus can start from real span sets.
func fuzzSpanBytes(spans []Span) []byte {
	var out []byte
	for _, s := range spans {
		out = appendFuzzString(out, s.Track)
		out = appendFuzzString(out, s.Name)
		out = binary.AppendVarint(out, s.Start)
		out = binary.AppendVarint(out, s.Dur)
		out = append(out, byte(len(s.Attrs)))
		for _, a := range s.Attrs {
			out = appendFuzzString(out, a.Key)
			out = appendFuzzString(out, a.Value)
		}
	}
	return out
}

// fuzzSpans decodes fuzz bytes into spans: per span a track, a name (each
// a length byte then the bytes), a zigzag-varint start and duration, an
// attr count byte (taken mod 8) and that many key/value string pairs. A
// short read ends the list.
func fuzzSpans(data []byte) []Span {
	str := func() (string, bool) {
		if len(data) == 0 {
			return "", false
		}
		n := min(int(data[0]), len(data)-1)
		s := string(data[1 : 1+n])
		data = data[1+n:]
		return s, true
	}
	varint := func() (int64, bool) {
		v, n := binary.Varint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	var spans []Span
	for {
		var s Span
		var ok bool
		if s.Track, ok = str(); !ok {
			return spans
		}
		if s.Name, ok = str(); !ok {
			return spans
		}
		if s.Start, ok = varint(); !ok {
			return spans
		}
		if s.Dur, ok = varint(); !ok {
			return spans
		}
		if len(data) > 0 {
			nattrs := int(data[0] % 8)
			data = data[1:]
			for i := 0; i < nattrs; i++ {
				var a Attr
				if a.Key, ok = str(); !ok {
					break
				}
				if a.Value, ok = str(); !ok {
					break
				}
				s.Attrs = append(s.Attrs, a)
			}
		}
		spans = append(spans, s)
	}
}

// FuzzChromeTrace holds the direct encoder to its oracle: for any spans and
// metadata, MarshalChromeTraceMeta writes exactly the bytes encoding/json
// writes for ChromeTraceMeta's events, and WriteChromeTraceMeta the same
// plus a newline.
func FuzzChromeTrace(f *testing.F) {
	for _, spans := range chromeTestSpans {
		f.Add(fuzzSpanBytes(spans), "", int64(0))
		f.Add(fuzzSpanBytes(spans), "job-000001", int64(3))
	}
	hostile := []Span{
		{Track: "cell/<a>&b", Name: "x\u2028y\u2029z", Start: -1 << 63, Dur: 1<<63 - 1,
			Attrs: []Attr{{Key: "k", Value: "1"}, {Key: "a", Value: "2"}, {Key: "k", Value: "3"}}},
		{Track: "bad\xff\xfe\xed\xa0\x80utf8", Name: "\x00\x01\b\f\n\r\t\x1f\x7f\"\\", Start: 7, Dur: -9,
			Attrs: []Attr{{Key: "\xc3", Value: "\ufffd é 😀 </script>"}, {Key: "", Value: ""}}},
		{Track: "cell/<a>&b", Name: "STALL", Start: 7, Dur: 0,
			Attrs: []Attr{{Key: "note", Value: "a"}, {Key: "note", Value: "b"}}},
	}
	f.Add(fuzzSpanBytes(hostile), "<job>\u2028\xff", int64(-42))
	f.Fuzz(func(t *testing.T, data []byte, process string, dropped int64) {
		spans := fuzzSpans(data)
		meta := TraceMeta{Process: process, DroppedSpans: dropped}
		want, err := json.Marshal(ChromeTraceMeta(spans, meta))
		if err != nil {
			t.Fatal(err)
		}
		got, err := MarshalChromeTraceMeta(spans, meta)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder and oracle differ for %q, %+v:\n got %s\nwant %s", data, meta, got, want)
		}
		var buf bytes.Buffer
		if err := WriteChromeTraceMeta(&buf, spans, meta); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), append(want, '\n')) {
			t.Fatalf("WriteChromeTraceMeta differs from the oracle for %q, %+v:\n got %s\nwant %s\\n",
				data, meta, buf.Bytes(), want)
		}
	})
}

// coldJobSpans builds an assembled trace shaped like a cold two-cell sdserve
// job: job-lane lifecycle spans, then per cell 4,096 op spans over nine
// comp[...] tracks with cycle timestamps, every eighth a STALL with a note,
// and the cell's lifecycle spans with outcome attrs.
func coldJobSpans() []Span {
	ok := Attr{Key: "outcome", Value: "ok"}
	spans := []Span{
		{Track: "job", Name: "queue.wait", Start: 0, Dur: 12},
		{Track: "job", Name: "sweep", Start: 12, Dur: 18000,
			Attrs: []Attr{{Key: "cells", Value: "2"}, ok}},
		{Track: "job", Name: "render", Start: 18012, Dur: 40,
			Attrs: []Attr{{Key: "format", Value: "csv"}, ok}},
		{Track: "job", Name: "merge", Start: 18052, Dur: 30},
	}
	ops := []string{"NDCONV", "DMALOAD", "DMASTORE", "MATMUL", "ACTIVATE", "POOL", "LDRI", "BRANCH"}
	for cell, name := range []string{"simnet", "fcnet"} {
		prefix := "cell/" + name + "/baseline/mb1/eval"
		for i := 0; i < 4096; i++ {
			track := fmt.Sprintf("%s/comp[r%d,c%d,FP]", prefix, i%3, i/3%3)
			s := Span{Track: track, Name: ops[i%len(ops)], Start: int64(i * 37), Dur: int64(29 + i%11)}
			if i%8 == 7 {
				s.Name, s.Dur = "STALL", 0
				s.Attrs = []Attr{{Key: "note", Value: "read on tracker"}}
			}
			spans = append(spans, s)
		}
		base := int64(cell * 9000)
		for j, stage := range []string{"store.get", "store.flight", "simulate", "store.put"} {
			spans = append(spans, Span{Track: prefix, Name: stage, Start: base + int64(j*10), Dur: 8000,
				Attrs: []Attr{ok}})
		}
	}
	return spans
}

var chromeSink []byte

// BenchmarkChromeTraceEncode renders a cold-job-shaped trace through the
// oracle (events marshalled by encoding/json) and through the direct
// encoder.
func BenchmarkChromeTraceEncode(b *testing.B) {
	spans := coldJobSpans()
	meta := TraceMeta{Process: "job-000001", DroppedSpans: 6184}
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := json.Marshal(ChromeTraceMeta(spans, meta))
			if err != nil {
				b.Fatal(err)
			}
			chromeSink = data
		}
	})
	b.Run("encoder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := MarshalChromeTraceMeta(spans, meta)
			if err != nil {
				b.Fatal(err)
			}
			chromeSink = data
		}
	})
}
