package telemetry

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
)

func omRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("sim.flops").Add(42)
	reg.Counter("sim.link.bytes", Label{Key: "link", Value: "comp-mem"}).Add(100)
	reg.Counter("sim.link.bytes", Label{Key: "link", Value: "ext"}).Add(7)
	reg.Gauge("sim.pe_utilization").Set(0.5)
	h := reg.Histogram("http.request.seconds", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	return reg
}

func TestWriteOpenMetricsPinnedOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, omRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	// Emission order is counters, gauges, histograms, each sorted by name.
	want := strings.Join([]string{
		`# TYPE sim_flops counter`,
		`sim_flops_total 42`,
		`# TYPE sim_link_bytes counter`,
		`sim_link_bytes_total{link="comp-mem"} 100`,
		`sim_link_bytes_total{link="ext"} 7`,
		`# TYPE sim_pe_utilization gauge`,
		`sim_pe_utilization 0.5`,
		`# TYPE http_request_seconds histogram`,
		`http_request_seconds_bucket{le="0.01"} 1`,
		`http_request_seconds_bucket{le="0.1"} 2`,
		`http_request_seconds_bucket{le="1"} 2`,
		`http_request_seconds_bucket{le="+Inf"} 3`,
		`http_request_seconds_sum 5.055`,
		`http_request_seconds_count 3`,
		`# EOF`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestOpenMetricsRoundTripsThroughParser(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, omRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	families, err := ParseOpenMetrics(buf.Bytes())
	if err != nil {
		t.Fatalf("own exposition does not parse: %v", err)
	}
	byName := map[string]OMFamily{}
	for _, f := range families {
		byName[f.Name] = f
	}
	if f := byName["sim_flops"]; f.Type != "counter" || len(f.Samples) != 1 || f.Samples[0].Value != 42 {
		t.Errorf("sim_flops family = %+v", f)
	}
	if f := byName["sim_link_bytes"]; len(f.Samples) != 2 {
		t.Errorf("sim_link_bytes has %d samples, want 2", len(f.Samples))
	} else if f.Samples[0].Labels["link"] != "comp-mem" {
		t.Errorf("first sim_link_bytes sample labels = %v", f.Samples[0].Labels)
	}
	if f := byName["http_request_seconds"]; f.Type != "histogram" || len(f.Samples) != 6 {
		t.Errorf("histogram family = %+v", f)
	}
}

func TestOpenMetricsEscapesLabelValues(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("weird", Label{Key: "v", Value: "a\"b\\c\nd"}).Inc()
	reg.Counter("route", Label{Key: "r", Value: "GET /jobs/{id}"}).Inc()
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseOpenMetrics(buf.Bytes())
	if err != nil {
		t.Fatalf("escaped exposition does not parse: %v (doc: %q)", err, buf.String())
	}
	byName := map[string]OMFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if got := byName["weird"].Samples[0].Labels["v"]; got != "a\"b\\c\nd" {
		t.Errorf("label value round-trip = %q", got)
	}
	if got := byName["route"].Samples[0].Labels["r"]; got != "GET /jobs/{id}" {
		t.Errorf("braced label value round-trip = %q", got)
	}
}

func TestOpenMetricsGaugeSpecials(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("g.inf").Set(math.Inf(1))
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseOpenMetrics(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(fams[0].Samples[0].Value, 1) {
		t.Errorf("gauge +Inf round-trip = %v", fams[0].Samples[0].Value)
	}
}

// malformedOMDocs are documents ParseOpenMetrics must reject, by the rule
// each breaks.
var malformedOMDocs = map[string]string{
	"missing EOF":       "# TYPE a counter\na_total 1\n",
	"blank line":        "# TYPE a counter\n\na_total 1\n# EOF\n",
	"sample before":     "a_total 1\n# EOF\n",
	"duplicate family":  "# TYPE a counter\na_total 1\n# TYPE a counter\na_total 2\n# EOF\n",
	"counter no total":  "# TYPE a counter\na 1\n# EOF\n",
	"negative counter":  "# TYPE a counter\na_total -3\n# EOF\n",
	"foreign sample":    "# TYPE a counter\nb_total 1\n# EOF\n",
	"bad value":         "# TYPE a gauge\na zebra\n# EOF\n",
	"unterminated lbls": "# TYPE a gauge\na{x=\"1 2\n# EOF\n",
	"non-cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n" +
		"h_sum 1\nh_count 3\n# EOF\n",
	"missing +Inf": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n# EOF\n",
	"count mismatch": "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\n" +
		"h_sum 1\nh_count 4\n# EOF\n",
	"le out of order": "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\n" +
		"h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n# EOF\n",
	"empty": "",
}

func TestParseOpenMetricsRejectsMalformed(t *testing.T) {
	for name, doc := range malformedOMDocs {
		if _, err := ParseOpenMetrics([]byte(doc)); err == nil {
			t.Errorf("%s: parser accepted malformed document %q", name, doc)
		}
	}
}

// helpTimestampOMDoc carries a HELP line and a sample timestamp.
const helpTimestampOMDoc = "# HELP a helpful words here\n# TYPE a gauge\na{x=\"1\"} 2 1700000000\n# EOF\n"

func TestParseOpenMetricsAcceptsHelpAndTimestamps(t *testing.T) {
	fams, err := ParseOpenMetrics([]byte(helpTimestampOMDoc))
	if err != nil {
		t.Fatalf("HELP/timestamp document rejected: %v", err)
	}
	if fams[0].Samples[0].Value != 2 {
		t.Errorf("sample value = %v", fams[0].Samples[0].Value)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"sim.op.cycles":    "sim_op_cycles",
		"server.jobs":      "server_jobs",
		"9lead":            "_lead",
		"a-b c":            "a_b_c",
		"ok_name:sub":      "ok_name:sub",
		"telemetry.trace.": "telemetry_trace_",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// FuzzParseOpenMetrics feeds arbitrary documents to ParseOpenMetrics, which
// sdomlint runs on scrapes. It must never panic, and a document it accepts
// holds at least one metric family and ends with its "# EOF" line. The
// seeds are a scrape of a populated registry, the HELP/timestamp document
// and every malformed document above.
func FuzzParseOpenMetrics(f *testing.F) {
	var scrape bytes.Buffer
	if err := WriteOpenMetrics(&scrape, omRegistry().Snapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(scrape.Bytes())
	f.Add([]byte(helpTimestampOMDoc))
	names := make([]string, 0, len(malformedOMDocs))
	for name := range malformedOMDocs {
		names = append(names, name)
	}
	sort.Strings(names) // seeds in a fixed order
	for _, name := range names {
		f.Add([]byte(malformedOMDocs[name]))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		fams, err := ParseOpenMetrics(doc)
		if err != nil {
			return
		}
		if len(fams) == 0 {
			t.Fatalf("accepted %q with no metric family", doc)
		}
		if !bytes.HasSuffix(bytes.TrimSuffix(doc, []byte("\n")), []byte("\n# EOF")) {
			t.Fatalf("accepted %q, which does not end with # EOF", doc)
		}
	})
}
