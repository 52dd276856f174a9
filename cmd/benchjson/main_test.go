package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fiveRuns = `goos: linux
BenchmarkGemmTA-2   	     200	    400 ns/op	       0 B/op	       0 allocs/op
BenchmarkServeBatchQPS-2   	       3	  9000 ns/op	  70000 queries/s	     512 B/op	       3 allocs/op
BenchmarkGemmTA-2   	     200	    100 ns/op	       0 B/op	       0 allocs/op
BenchmarkServeBatchQPS-2   	       3	  7000 ns/op	  90000 queries/s	     640 B/op	       4 allocs/op
BenchmarkGemmTA-2   	     200	    300 ns/op	       0 B/op	       0 allocs/op
BenchmarkGemmTA-2   	     200	    500 ns/op	       0 B/op	       0 allocs/op
BenchmarkGemmTA-2   	     200	    200 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	xbarsec	1.234s
`

func TestParseAggregatesRepeatedSamples(t *testing.T) {
	rep, err := parse(strings.NewReader(fiveRuns))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("%d entries, want one per benchmark name", len(rep.Benchmarks))
	}
	g := rep.Benchmarks[0]
	if g.Name != "GemmTA" || g.Iters != 200 || g.Samples != 5 {
		t.Fatalf("GemmTA entry = %+v", g)
	}
	if g.NsPerOp != 300 || g.MsPerOp != 0.0003 || g.NsPerOpMin != 100 || g.NsPerOpMax != 500 {
		t.Fatalf("GemmTA median/range = %v / %v..%v", g.NsPerOp, g.NsPerOpMin, g.NsPerOpMax)
	}
	if g.AllocsPerOp == nil || *g.AllocsPerOp != 0 || g.BytesPerOp == nil || *g.BytesPerOp != 0 || g.Metrics != nil {
		t.Fatalf("GemmTA -benchmem fields = %v / %v / %v", g.AllocsPerOp, g.BytesPerOp, g.Metrics)
	}
	q := rep.Benchmarks[1]
	if q.NsPerOp != 8000 || q.Samples != 2 || q.Metrics["queries/s"] != 80000 || *q.AllocsPerOp != 3.5 || *q.BytesPerOp != 576 {
		t.Fatalf("ServeBatchQPS entry = %+v", q)
	}
}

// TestSingleSampleKeepsTheOriginalShape pins the additive schema: one
// run without -benchmem encodes exactly as before the spread fields.
func TestSingleSampleKeepsTheOriginalShape(t *testing.T) {
	rep, err := parse(strings.NewReader("BenchmarkFGSM-2 200 17042 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"schema":"xbarsec-bench/v1","benchmarks":[{"name":"FGSM","iterations":200,"ns_per_op":17042,"ms_per_op":0.017042}]}`
	if string(got) != want {
		t.Fatalf("got %s\nwant %s", got, want)
	}
}

// TestCommittedBenchFilesParse decodes every committed BENCH_*.json
// with the current schema, unknown fields refused.
func TestCommittedBenchFilesParse(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed BENCH files found (%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(strings.NewReader(string(data)))
		dec.DisallowUnknownFields()
		var rep Report
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if rep.Schema != "xbarsec-bench/v1" || len(rep.Benchmarks) == 0 {
			t.Fatalf("%s: schema %q with %d entries", f, rep.Schema, len(rep.Benchmarks))
		}
	}
}
