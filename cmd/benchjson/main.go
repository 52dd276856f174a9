// Command benchjson converts `go test -bench` output on stdin into the
// BENCH_*.json format the repo uses to record its performance trajectory:
// one entry per benchmark with its iteration count and ns/op. Lines that
// are not benchmark results are skipped, so several -bench runs can be
// concatenated:
//
//	{ go test -run XXX -bench 'Gemm' -count 5 -benchmem -benchtime 200x .; \
//	  go test -run XXX -bench 'Table1$' -count 5 -benchmem -benchtime 3x .; } \
//	  | go run ./cmd/benchjson > BENCH_17.json
//
// A benchmark run several times (-count N) becomes one entry: ns/op and
// the custom metrics are the median over its samples, and the spread of
// ns/op is recorded beside it.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Entry is one benchmark measurement. Metrics holds any custom
// b.ReportMetric values the benchmark emitted beyond ns/op (e.g.
// "queries/s" from the batched-serving benchmark). Every field after
// Metrics was added later and is omitted when absent, so the schema tag
// is unchanged and older files still parse.
type Entry struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iterations"`
	NsPerOp float64            `json:"ns_per_op"`
	MsPerOp float64            `json:"ms_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Samples is how many runs the entry aggregates; NsPerOp is their
	// median and NsPerOpMin/NsPerOpMax their range.
	Samples    int     `json:"samples,omitempty"`
	NsPerOpMin float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax float64 `json:"ns_per_op_max,omitempty"`
	// AllocsPerOp and BytesPerOp are the medians of -benchmem's
	// allocs/op and B/op (nil without -benchmem).
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
}

// Report is the BENCH_*.json schema.
type Report struct {
	Schema     string  `json:"schema"`
	Benchmarks []Entry `json:"benchmarks"`
}

// sample is one parsed result line.
type sample struct {
	iters   int64
	ns      float64
	metrics map[string]float64 // every (value, unit) pair after ns/op
}

// parse reads `go test -bench` output and returns one entry per
// benchmark name, in order of first appearance.
func parse(r io.Reader) (Report, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var order []string
	byName := map[string][]sample{}
	for sc.Scan() {
		name, s, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if _, seen := byName[name]; !seen {
			order = append(order, name)
		}
		byName[name] = append(byName[name], s)
	}
	rep := Report{Schema: "xbarsec-bench/v1"}
	for _, name := range order {
		rep.Benchmarks = append(rep.Benchmarks, aggregate(name, byName[name]))
	}
	return rep, sc.Err()
}

// parseLine parses one result line, shaped
// BenchmarkName[-P] N X ns/op [value unit]...
func parseLine(line string) (string, sample, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return "", sample{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", sample{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		name = name[:i] // strip the GOMAXPROCS suffix
	}
	name = strings.TrimPrefix(name, "Benchmark")
	for i := 2; i < len(fields); i++ {
		if fields[i] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(fields[i-1], 64)
		if err != nil {
			return "", sample{}, false
		}
		iters, _ := strconv.ParseInt(fields[1], 10, 64)
		s := sample{iters: iters, ns: ns}
		// Remaining fields come in (value, unit) pairs — custom
		// b.ReportMetric output, and B/op and allocs/op under -benchmem.
		for j := i + 2; j < len(fields); j += 2 {
			v, err := strconv.ParseFloat(fields[j-1], 64)
			if err != nil {
				continue
			}
			if s.metrics == nil {
				s.metrics = make(map[string]float64)
			}
			s.metrics[fields[j]] = v
		}
		return name, s, true
	}
	return "", sample{}, false
}

// aggregate folds one benchmark's samples into its entry.
func aggregate(name string, samples []sample) Entry {
	ns := make([]float64, len(samples))
	for i, s := range samples {
		ns[i] = s.ns
	}
	med := median(ns)
	e := Entry{Name: name, Iters: samples[0].iters, NsPerOp: med, MsPerOp: med / 1e6}
	if len(samples) > 1 {
		e.Samples = len(samples)
		e.NsPerOpMin, e.NsPerOpMax = slices.Min(ns), slices.Max(ns)
	}
	units := map[string][]float64{}
	for _, s := range samples {
		for unit, v := range s.metrics {
			units[unit] = append(units[unit], v)
		}
	}
	for unit, vs := range units {
		m := median(vs)
		switch unit {
		case "allocs/op":
			e.AllocsPerOp = &m
		case "B/op":
			e.BytesPerOp = &m
		default:
			if e.Metrics == nil {
				e.Metrics = make(map[string]float64)
			}
			e.Metrics[unit] = m
		}
	}
	return e
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is reordered.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func main() {
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	os.Stdout.Write(append(out, '\n'))
}
