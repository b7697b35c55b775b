package telemetry

import (
	"cmp"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ChromeEvent is one entry of the Chrome trace-event format (the JSON array
// flavor), loadable in Perfetto and chrome://tracing. Spans become complete
// events (ph "X"); track names become thread-name metadata events (ph "M").
// The encoder below writes the document directly; ChromeEvent names its
// shape for readers that decode it.
type ChromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromePid is the single synthetic process all tracks live under.
const chromePid = 1

// TraceMeta annotates a Chrome export with document-level metadata events.
type TraceMeta struct {
	// Process names the synthetic process (shown as the process row in
	// Perfetto) — job traces put the job ID here.
	Process string
	// DroppedSpans is the producer's eviction count. When non-zero the
	// export carries a "trace.dropped_spans" metadata event, so a truncated
	// trace is detectable from the file itself instead of silently
	// misleading.
	DroppedSpans int64
}

// MarshalChromeTrace renders spans as a Chrome trace-event JSON array.
func MarshalChromeTrace(spans []Span) ([]byte, error) {
	return MarshalChromeTraceMeta(spans, TraceMeta{})
}

// MarshalChromeTraceMeta renders spans plus document metadata as a Chrome
// trace-event JSON array: a process_name event when meta names a process, a
// trace.dropped_spans event when meta counts drops, one thread_name event
// per distinct track (tid assigned by sorted track name), then one complete
// event per span in ascending start order, ties in input order. Negative
// starts and durations are clamped to 0 so the output always satisfies the
// viewer's expectations. A span's attrs become its args object, keys
// sorted, the last of duplicate keys winning.
//
// The bytes are exactly what encoding/json writes for the equivalent
// []ChromeEvent (HTML-safe escaping, U+2028/U+2029 escaped, invalid UTF-8
// as U+FFFD); FuzzChromeTrace holds the encoder to that oracle. The error
// is always nil.
func MarshalChromeTraceMeta(spans []Span, meta TraceMeta) ([]byte, error) {
	return encodeChromeTrace(spans, meta, 0), nil
}

// WriteChromeTrace writes the Chrome trace-event JSON array for spans to w.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	return WriteChromeTraceMeta(w, spans, TraceMeta{})
}

// WriteChromeTraceMeta writes the Chrome trace-event JSON array for spans,
// annotated with document metadata, to w, followed by a newline.
func WriteChromeTraceMeta(w io.Writer, spans []Span, meta TraceMeta) error {
	data := append(encodeChromeTrace(spans, meta, 1), '\n')
	_, err := w.Write(data)
	return err
}

// encodeChromeTrace writes the whole document into one buffer sized for it
// (plus extra bytes of headroom for the caller), so an export allocates no
// event values and no per-span maps, and grows the buffer only when a
// string needs escaping.
func encodeChromeTrace(spans []Span, meta TraceMeta, extra int) []byte {
	// Tracks become threads, numbered by sorted name.
	tids := map[string]int{}
	for i := range spans {
		tids[spans[i].Track] = 0
	}
	tracks := make([]string, 0, len(tids))
	for track := range tids {
		tracks = append(tracks, track)
	}
	slices.Sort(tracks)
	for i, track := range tracks {
		tids[track] = i + 1
	}
	// One key per span, sorted by (start, input index).
	type spanKey struct {
		start  int64
		i, tid int
	}
	keys := make([]spanKey, len(spans))
	size := 2 + extra
	for i := range spans {
		s := &spans[i]
		keys[i] = spanKey{start: s.Start, i: i, tid: tids[s.Track]}
		size += spanLen(s, keys[i].tid)
	}
	slices.SortFunc(keys, func(a, b spanKey) int {
		if a.start != b.start {
			return cmp.Compare(a.start, b.start)
		}
		return cmp.Compare(a.i, b.i)
	})

	dropped := strconv.FormatInt(meta.DroppedSpans, 10)
	if meta.Process != "" {
		size += metaEventLen("process_name", 0, "name", meta.Process)
	}
	if meta.DroppedSpans != 0 {
		size += metaEventLen("trace.dropped_spans", 0, "dropped", dropped)
	}
	for i, track := range tracks {
		size += metaEventLen("thread_name", i+1, "name", track)
	}

	dst := make([]byte, 0, size)
	dst = append(dst, '[')
	if meta.Process != "" {
		dst = appendMetaEvent(dst, "process_name", 0, "name", meta.Process)
	}
	if meta.DroppedSpans != 0 {
		dst = appendMetaEvent(dst, "trace.dropped_spans", 0, "dropped", dropped)
	}
	for i, track := range tracks {
		dst = appendMetaEvent(dst, "thread_name", i+1, "name", track)
	}
	var attrKeys []int
	for _, k := range keys {
		s := &spans[k.i]
		dst = appendEventHead(dst, s.Name, 'X', max(s.Start, 0), max(s.Dur, 0), k.tid)
		if len(s.Attrs) > 0 {
			dst = append(dst, `,"args":{`...)
			dst, attrKeys = appendArgs(dst, s.Attrs, attrKeys)
			dst = append(dst, '}')
		}
		dst = append(dst, '}', ',')
	}
	if dst[len(dst)-1] == ',' {
		dst[len(dst)-1] = ']'
	} else {
		dst = append(dst, ']')
	}
	return dst
}

// appendEventHead writes an event's opening brace and every field but args.
func appendEventHead(dst []byte, name string, ph byte, ts, dur int64, tid int) []byte {
	dst = append(dst, `{"name":`...)
	dst = appendJSONString(dst, name)
	dst = append(dst, `,"ph":"`...)
	dst = append(dst, ph)
	dst = append(dst, `","ts":`...)
	dst = strconv.AppendInt(dst, ts, 10)
	dst = append(dst, `,"dur":`...)
	dst = strconv.AppendInt(dst, dur, 10)
	dst = append(dst, `,"pid":`...)
	dst = strconv.AppendInt(dst, chromePid, 10)
	dst = append(dst, `,"tid":`...)
	return strconv.AppendInt(dst, int64(tid), 10)
}

// appendMetaEvent writes one metadata event with a single arg, and the
// comma that follows every event.
func appendMetaEvent(dst []byte, name string, tid int, key, value string) []byte {
	dst = appendEventHead(dst, name, 'M', 0, 0, tid)
	dst = append(dst, `,"args":{`...)
	dst = appendJSONString(dst, key)
	dst = append(dst, ':')
	dst = appendJSONString(dst, value)
	return append(dst, '}', '}', ',')
}

// The lengths below are what the append functions write when no string
// needs escaping; an escape makes the buffer they size grow.

// eventLen is the length of an event with an empty name, no args and the
// given tid, including its trailing comma.
func eventLen(tid int) int {
	return len(`{"name":"","ph":"X","ts":,"dur":,"pid":,"tid":},`) +
		decimalLen(chromePid) + decimalLen(int64(tid))
}

// spanLen is the length of a span's event.
func spanLen(s *Span, tid int) int {
	n := eventLen(tid) + len(s.Name) + decimalLen(max(s.Start, 0)) + decimalLen(max(s.Dur, 0))
	if len(s.Attrs) > 0 {
		n += len(`,"args":{}`) + len(s.Attrs) - 1
		for _, a := range s.Attrs {
			n += len(`"":""`) + len(a.Key) + len(a.Value)
		}
	}
	return n
}

// metaEventLen is the length appendMetaEvent writes.
func metaEventLen(name string, tid int, key, value string) int {
	return eventLen(tid) + len(name) + 2*decimalLen(0) + len(`,"args":{"":""}`) + len(key) + len(value)
}

// decimalLen is the number of digits strconv writes for v >= 0.
func decimalLen(v int64) int {
	n := 1
	for v >= 10 {
		v /= 10
		n++
	}
	return n
}

// appendArgs writes attrs as the members of a JSON object the way
// encoding/json writes a map[string]string built from them: keys in byte
// order, and of duplicate keys only the last one's value. keys is scratch
// space, returned for reuse.
func appendArgs(dst []byte, attrs []Attr, keys []int) ([]byte, []int) {
	keys = keys[:0]
	for i := range attrs {
		keys = append(keys, i)
	}
	// Among equal keys the latest attr sorts first, so it is the one kept.
	slices.SortFunc(keys, func(a, b int) int {
		if c := strings.Compare(attrs[a].Key, attrs[b].Key); c != 0 {
			return c
		}
		return cmp.Compare(b, a)
	})
	for n, i := range keys {
		if n > 0 {
			if attrs[i].Key == attrs[keys[n-1]].Key {
				continue
			}
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, attrs[i].Key)
		dst = append(dst, ':')
		dst = appendJSONString(dst, attrs[i].Value)
	}
	return dst, keys
}

// appendJSONString writes s as a JSON string escaped exactly as
// encoding/json escapes it: '"' and '\\' backslashed, \b \f \n \r \t by
// name, other control bytes and the HTML-sensitive '<', '>' and '&' as
// \u00XX, U+2028 and U+2029 as \u2028 and \u2029, and each byte of invalid
// UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
