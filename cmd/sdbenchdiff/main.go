// Command sdbenchdiff compares two benchmark result files benchstat-style:
//
//	sdbenchdiff [-max-regress pct] OLD NEW
//	sdbenchdiff -ratio NUM/DEN [-max-ratio r] FILE
//
// Each file is either a test2json stream as written by `make bench`
// (BENCH_sim.json, BENCH_sweep.json, BENCH_store.json) or the raw text of a
// `go test -bench` run. For every benchmark and metric present in both
// files it prints old, new and the relative delta, where negative means the
// new run is better for cost-like metrics (ns/op, B/op, allocs/op).
//
// With -max-regress, the exit status is 1 if any ns/op regresses by more
// than the given percentage — the CI gate for the perf trajectory. Ratio
// metrics such as speedup-x are reported but never gated, since they
// measure the runner as much as the code.
//
// With -ratio, sdbenchdiff instead reads ONE file and computes the ns/op
// ratio between two benchmarks in it — e.g.
//
//	sdbenchdiff -ratio RunTelemetryOn/RunTelemetryOff -max-ratio 1.5 BENCH_sim.json
//
// asserts that a telemetry-on run costs at most 1.5× a telemetry-off run
// (`make bench` uses exactly this as the observability overhead gate).
// Exit status is 1 when the ratio exceeds -max-ratio (0 disables gating).
//
// When either benchmark of a -ratio pair reports a `workers` metric of 1,
// the -max-ratio gate is skipped with a logged reason and the exit status
// is 0: a parallel-speedup bound measured on a single-worker runner gates
// the machine, not the code. Benchmarks that report no workers metric
// (such as the predictor's per-cell benchmarks, whose speedup is
// parallelism-independent) are always gated.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches a Go benchmark result line after the name:
// iteration count followed by value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.+)$`)

// results maps "benchmark name" → "unit" → value.
type results map[string]map[string]float64

// parseFile reads one benchmark file in either format. test2json streams
// carry the benchmark text in "Output" events — one result line is often
// split across several events (the name is written before the run, the
// numbers after), so the stream is stitched back together before line
// splitting. Lines that are not benchmark results are ignored.
func parseFile(path string) (results, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var text strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var ev struct {
				Output string `json:"Output"`
			}
			if json.Unmarshal([]byte(line), &ev) == nil {
				text.WriteString(ev.Output)
				continue
			}
		}
		text.WriteString(line)
		text.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	res := results{}
	for _, line := range strings.Split(text.String(), "\n") {
		parseLine(res, strings.TrimSpace(line))
	}
	return res, nil
}

// parseLine folds one benchmark result line into res; repeated runs of the
// same benchmark are averaged so -count>1 files work too.
func parseLine(res results, line string) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return
	}
	name := m[1]
	fields := strings.Fields(m[3])
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		unit := fields[i+1]
		if res[name] == nil {
			res[name] = map[string]float64{}
		}
		if old, ok := res[name][unit]; ok {
			res[name][unit] = (old + v) / 2
		} else {
			res[name][unit] = v
		}
	}
}

// gated reports whether a metric participates in the -max-regress gate.
func gated(unit string) bool { return unit == "ns/op" }

// lookupMetric finds a benchmark's metric in res, accepting the name with
// or without the "Benchmark" prefix.
func lookupMetric(res results, name, unit string) (float64, bool) {
	for _, n := range []string{name, "Benchmark" + name} {
		if m, ok := res[n]; ok {
			if v, ok := m[unit]; ok {
				return v, true
			}
		}
	}
	return 0, false
}

// runRatio implements -ratio: the ns/op quotient of two benchmarks within
// one results file, optionally gated by -max-ratio. It returns the process
// exit status so tests can drive it without exiting.
func runRatio(spec string, maxRatio float64, path string, out, errOut io.Writer) int {
	parts := strings.SplitN(spec, "/", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		fmt.Fprintf(errOut, "sdbenchdiff: -ratio wants NUM/DEN benchmark names, got %q\n", spec)
		return 2
	}
	res, err := parseFile(path)
	if err != nil {
		fmt.Fprintln(errOut, "sdbenchdiff:", err)
		return 2
	}
	num, ok := lookupMetric(res, parts[0], "ns/op")
	if !ok {
		fmt.Fprintf(errOut, "sdbenchdiff: %s: no ns/op for %q\n", path, parts[0])
		return 2
	}
	den, ok := lookupMetric(res, parts[1], "ns/op")
	if !ok || den == 0 {
		fmt.Fprintf(errOut, "sdbenchdiff: %s: no usable ns/op for %q\n", path, parts[1])
		return 2
	}
	ratio := num / den
	fmt.Fprintf(out, "%s / %s = %.6g / %.6g ns/op = %.3fx\n", parts[0], parts[1], num, den, ratio)
	if maxRatio <= 0 {
		return 0
	}
	// A parallelism ratio measured on a single-worker runner gates the
	// machine, not the code: when either side reports workers=1 the bound
	// is reported but not enforced.
	for _, name := range parts {
		if w, ok := lookupMetric(res, name, "workers"); ok && w <= 1 {
			fmt.Fprintf(out, "gate skipped: %s ran with workers=%g (single-worker runner; the %.2fx bound needs parallelism)\n",
				name, w, maxRatio)
			return 0
		}
	}
	if ratio > maxRatio {
		fmt.Fprintf(errOut, "sdbenchdiff: ratio %.3fx exceeds the %.2fx bound\n", ratio, maxRatio)
		return 1
	}
	fmt.Fprintf(out, "within the %.2fx bound\n", maxRatio)
	return 0
}

func main() {
	maxRegress := flag.Float64("max-regress", 0, "exit 1 if any ns/op regresses by more than this percentage (0 = report only)")
	ratio := flag.String("ratio", "", "NUM/DEN: report the ns/op ratio of two benchmarks within one file")
	maxRatio := flag.Float64("max-ratio", 0, "with -ratio, exit 1 if the ratio exceeds this bound (0 = report only)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sdbenchdiff [-max-regress pct] OLD NEW\n")
		fmt.Fprintf(os.Stderr, "       sdbenchdiff -ratio NUM/DEN [-max-ratio r] FILE\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *ratio != "" {
		if flag.NArg() != 1 {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(runRatio(*ratio, *maxRatio, flag.Arg(0), os.Stdout, os.Stderr))
	}
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	old, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdbenchdiff:", err)
		os.Exit(2)
	}
	cur, err := parseFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdbenchdiff:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(cur))
	for name := range cur {
		if _, ok := old[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Println("sdbenchdiff: no common benchmarks")
		return
	}

	fmt.Printf("%-36s %-12s %14s %14s %9s\n", "benchmark", "metric", "old", "new", "delta")
	regressed := false
	for _, name := range names {
		units := make([]string, 0, len(cur[name]))
		for unit := range cur[name] {
			if _, ok := old[name][unit]; ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			o, n := old[name][unit], cur[name][unit]
			delta := "~"
			if o != 0 {
				pct := (n - o) / o * 100
				delta = fmt.Sprintf("%+.1f%%", pct)
				if *maxRegress > 0 && gated(unit) && pct > *maxRegress {
					delta += " REGRESSED"
					regressed = true
				}
			}
			fmt.Printf("%-36s %-12s %14.6g %14.6g %9s\n",
				strings.TrimPrefix(name, "Benchmark"), unit, o, n, delta)
		}
	}
	if regressed {
		fmt.Fprintf(os.Stderr, "sdbenchdiff: ns/op regression beyond %.1f%%\n", *maxRegress)
		os.Exit(1)
	}
}
