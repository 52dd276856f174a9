package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"xbarsec/api"
	"xbarsec/client"
	"xbarsec/internal/service"
)

// segments is how many servers an end-to-end run boots. Each one is
// timed to /healthz and then measured for an equal share of -seconds.
// Pooling several processes averages out what one process's memory
// layout does to the compute-bound workloads, so one run reads like the
// next.
const segments = 4

// runDir is this run's private directory under the work root.
func runDir(cfg config) string {
	return filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d-pid%d", cfg.workload, cfg.seed, os.Getpid()))
}

// workloadOp is one closed-loop client operation.
type workloadOp func(ctx context.Context, c, i int) error

// prepareWorkload runs the workload's untimed warm-up and correctness
// gate on a booted server and returns its operation. stream names the
// spec-seed stream, so repeated phases never share cache entries.
func prepareWorkload(ctx context.Context, cfg config, workload string, victim *service.Victim, sdks []*client.Client, stream string) (workloadOp, *phase, error) {
	switch workload {
	case "query-batch":
		l, err := newQueryBatchLoad(cfg.seed, victim)
		if err != nil {
			return nil, nil, err
		}
		if err := l.open(ctx, sdks); err != nil {
			return nil, nil, err
		}
		// Warm-up: every client sends every batch once, checked.
		return l.op, closedLoop(ctx, len(sdks), 0, batchWindows, l.op), nil
	case "campaign":
		// Warm-up: one checked cycle (three misses and a repeat) per
		// client from its own seed stream.
		warm := newCampaignLoad(cfg.seed, stream+"-warmup", sdks)
		gate := closedLoop(ctx, len(sdks), 0, repeatEvery, warm.op)
		return newCampaignLoad(cfg.seed, stream, sdks).op, gate, nil
	case "table1-job":
		gate := closedLoop(ctx, 1, 0, 1, func(ctx context.Context, _, _ int) error {
			return table1GoldenGate(ctx, cfg.root, sdks[0])
		})
		l := &table1Load{seed: cfg.seed, stream: stream, sdks: sdks}
		return l.op, gate, nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q", workload)
}

// trainVictim trains the server's mnist victim in-process (query-batch
// gate and the traced layer calls need it).
func trainVictim() (*service.Victim, error) {
	v, err := service.TrainVictim(victimSpec())
	if err != nil {
		return nil, fmt.Errorf("training the in-process victim: %w", err)
	}
	return v, nil
}

func runEndToEnd(ctx context.Context, cfg config) (*report, error) {
	rep := &report{workload: cfg.workload}
	dir := runDir(cfg)
	defer os.RemoveAll(dir)

	var victim *service.Victim
	if cfg.workload == "query-batch" {
		var err error
		if victim, err = trainVictim(); err != nil {
			return nil, err
		}
	}

	p := &phase{}
	var setups, rss []float64
	var deltas []string
	for k := 0; k < segments; k++ {
		seg, setup, peak, delta, err := runSegment(ctx, cfg, victim, filepath.Join(dir, fmt.Sprintf("state-%d", k)), k, rep)
		if err != nil {
			return nil, err
		}
		p.merge(seg)
		setups = append(setups, setup.Seconds())
		rss = append(rss, peak)
		deltas = append(deltas, delta)
	}
	rep.count(p)

	n := p.attempted
	rep.add("setup_s", median(setups), "s", len(setups))
	rep.add("ops_per_s", p.rate(), "1/s", p.succeeded())
	switch cfg.workload {
	case "query-batch":
		rep.info("queries_per_s", p.rate()*batchRows, "1/s", p.succeeded()*batchRows, "64 queries per op")
	default:
		rep.info("jobs_per_s", p.rate(), "1/s", p.succeeded(), "")
	}
	// The median is printed but not gated: on campaign it falls between
	// the fast and slow modes of the miss latencies, so it swings far
	// more from run to run than the throughput or the tail (README.md).
	rep.info("latency_p50_ms", percentile(p.lats, 0.50), "ms", n, "not gated")
	rep.add("latency_p90_ms", percentile(p.lats, 0.90), "ms", n)
	if n < 100 {
		rep.rows[len(rep.rows)-1].note = "fewer than 100 samples: under 10 beyond p90"
	}
	if cfg.workload == "query-batch" {
		note := ""
		if n < 1000 {
			note = "fewer than 1000 samples: under 10 beyond p99"
		}
		rep.info("latency_p99_ms", percentile(p.lats, 0.99), "ms", n, note)
	}
	rep.info("failed_frac", float64(p.failed)/float64(max(n, 1)), "ratio", n, "failed or mismatched over attempted")
	rep.add("server_peak_rss_mb", median(rss), "MiB", len(rss))
	rep.notes = append(rep.notes, deltas...)
	return rep, nil
}

// runSegment boots one server, runs the workload's warm-up and gate,
// measures it for the segment's share of -seconds, and stops the
// server. It returns the measured phase, the boot time, the server's
// peak RSS and its /v2/stats delta.
func runSegment(ctx context.Context, cfg config, victim *service.Victim, stateDir string, k int, rep *report) (*phase, time.Duration, float64, string, error) {
	srv, setup, err := bootServer(ctx, cfg.serverBin, stateDir)
	if err != nil {
		return nil, 0, 0, "", err
	}
	defer srv.kill()
	sdks, err := newSDKs(srv.url, cfg.clients)
	if err != nil {
		return nil, 0, 0, "", err
	}
	op, gate, err := prepareWorkload(ctx, cfg, cfg.workload, victim, sdks, fmt.Sprintf("measured-%d", k))
	if err != nil {
		return nil, 0, 0, "", err
	}
	rep.count(gate)
	before, err := srv.stats(ctx)
	if err != nil {
		return nil, 0, 0, "", err
	}
	p := closedLoop(ctx, cfg.clients, time.Duration(cfg.seconds)*time.Second/segments, 0, op)
	after, err := srv.stats(ctx)
	if err != nil {
		return nil, 0, 0, "", err
	}
	peak, err := srv.peakRSSMB()
	if err != nil {
		return nil, 0, 0, "", err
	}
	if err := srv.stop(); err != nil {
		return nil, 0, 0, "", err
	}
	return p, setup, peak, fmt.Sprintf("segment %d: %s", k, statsDelta(before, after)), ctx.Err()
}

// statsDelta summarizes what the server counted during a measured
// phase.
func statsDelta(a, b api.Stats) string {
	return fmt.Sprintf("server /v2/stats delta: %d queries in %d coalesced flushes, %d campaigns, %d cache hits / %d misses, %d artifacts spilled (%d bytes), %d jobs",
		b.BatchedQueries-a.BatchedQueries, b.BatchFlushes-a.BatchFlushes, b.Campaigns-a.Campaigns,
		b.CacheHits-a.CacheHits, b.CacheMisses-a.CacheMisses,
		b.SpilledArtifacts-a.SpilledArtifacts, b.SpilledArtifactBytes-a.SpilledArtifactBytes,
		b.ExperimentJobs-a.ExperimentJobs)
}
