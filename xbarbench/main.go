// Command xbarbench is the end-to-end benchmark of xbarserve. One
// load-generator process boots the checkout's own cmd/xbarserve on a
// fresh durable state directory and drives it over loopback HTTP through
// the public client SDK, in closed loops, on one of three workloads:
//
//	query-batch  2 sessions, each sending 64-row power-measuring batches
//	campaign     2 clients running Fig. 5 campaigns, every 4th a repeat
//	table1-job   1 client running cold Table I jobs, a new seed each
//
// Every workload has a correctness gate; a mismatch counts as a failed
// operation and makes the command exit non-zero. With -trace 0 it
// reports the end-to-end metrics; with -trace 1 it reports per-layer
// metrics from spans recorded around each layer call (see README.md).
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Started from the checkout root by run.sh, which builds both binaries
// into .bench_build/bin first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// config is the parsed command line plus the paths run.sh lays out
// under the checkout root, which is the working directory.
type config struct {
	root      string // checkout root (golden files are read from here)
	serverBin string // the built cmd/xbarserve
	work      string // root for state directories and span files
	workload  string
	seed      int64
	seconds   int
	trace     bool
	clients   int // closed-loop clients of the workload, capped at NumCPU
}

// workloadClients is each workload's closed-loop client count before the
// NumCPU cap.
var workloadClients = map[string]int{
	"query-batch": 2,
	"campaign":    2,
	"table1-job":  1,
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbarbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbarbench:", err)
		stop()
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xbarbench:", err)
		stop()
		os.Exit(1)
	}
	if !rep.correct() {
		for _, e := range rep.errs {
			fmt.Fprintln(os.Stderr, "xbarbench: failed operation:", e)
		}
		stop()
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("xbarbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "query-batch | campaign | table1-job")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: generates query rows and spec seeds")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	n, ok := workloadClients[cfg.workload]
	if !ok {
		return cfg, fmt.Errorf("unknown -workload %q (want query-batch, campaign or table1-job)", cfg.workload)
	}
	cfg.clients = min(n, runtime.NumCPU())
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("-seconds %d must be at least 1", cfg.seconds)
	}
	switch *traceFlag {
	case 0, 1:
		cfg.trace = *traceFlag == 1
	default:
		return cfg, fmt.Errorf("-trace %d must be 0 or 1", *traceFlag)
	}
	var err error
	if cfg.root, err = os.Getwd(); err != nil {
		return cfg, err
	}
	cfg.serverBin = filepath.Join(cfg.root, ".bench_build", "bin", "xbarserve")
	cfg.work = filepath.Join(cfg.root, ".bench_build", "run")
	if _, err := os.Stat(cfg.serverBin); err != nil {
		return cfg, fmt.Errorf("no xbarserve build (run through run.sh): %w", err)
	}
	return cfg, nil
}

func run(ctx context.Context, cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	if cfg.trace {
		return runTraced(ctx, cfg)
	}
	return runEndToEnd(ctx, cfg)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one line of the human-readable table.
type row struct {
	name    string
	value   float64
	unit    string
	samples int
	note    string
	inJSON  bool
}

// report accumulates the run's metrics, operation counts and gate
// failures.
type report struct {
	workload  string
	trace     bool
	rows      []row
	attempted int
	failed    int
	errs      []string
	notes     []string
}

// add records a metric that goes into the JSON result.
func (r *report) add(name string, v float64, unit string, samples int) {
	r.rows = append(r.rows, row{name: name, value: v, unit: unit, samples: samples, inJSON: true})
}

// info records a table-only metric (not part of BENCHMARK.json).
func (r *report) info(name string, v float64, unit string, samples int, note string) {
	r.rows = append(r.rows, row{name: name, value: v, unit: unit, samples: samples, note: note})
}

// count folds a phase's operation counts and failure messages into the
// report.
func (r *report) count(p *phase) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.errs = append(r.errs, p.errs...)
}

func (r *report) correct() bool { return r.failed == 0 }

func (r *report) print(w io.Writer) error {
	mode := "end-to-end"
	if r.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "xbarbench %s — %s metrics\n", r.workload, mode)
	fmt.Fprintf(w, "  %-36s %14s  %-7s %8s\n", "metric", "value", "unit", "samples")
	for _, m := range r.rows {
		line := fmt.Sprintf("  %-36s %14.4f  %-7s %8d", m.name, m.value, m.unit, m.samples)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", r.attempted, r.failed)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, map[string]metric{}}
	for _, m := range r.rows {
		if m.inJSON {
			out.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or Inf value fails here.
		return fmt.Errorf("encoding the result line: %w", err)
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// since returns the milliseconds elapsed from t.
func since(t time.Time) float64 { return ms(time.Since(t)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
