package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Fixed operation counts of the traced run's mix: each workload other
// than the one under test runs this many operations per client, once
// untraced and once traced, so every per-layer metric is measured on
// every workload's traced run.
var mixOps = map[string]int{
	"query-batch": 40,
	"campaign":    2 * repeatEvery,
	"table1-job":  2,
}

// workloadOrder fixes the order the traced run visits workloads in.
var workloadOrder = []string{"query-batch", "campaign", "table1-job"}

// runTraced is the per-layer run. On one fresh server it runs an
// untraced pass and then a traced pass of the same traffic: the
// workload under test for half of -seconds each, plus a fixed mix of the
// other workloads. /v2/stats deltas come from the untraced pass, SDK and
// wire spans from the traced pass. Then, with the server idle, it calls
// each layer's public functions in-process under spans. Spans go to a
// JSON file under the work directory.
func runTraced(ctx context.Context, cfg config) (*report, error) {
	rep := &report{workload: cfg.workload, trace: true}
	dir := runDir(cfg)
	defer os.RemoveAll(dir)

	victim, err := trainVictim()
	if err != nil {
		return nil, err
	}
	srv, _, err := bootServer(ctx, cfg.serverBin, filepath.Join(dir, "state"))
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	sdks, err := newSDKs(srv.url, min(2, runtime.NumCPU()))
	if err != nil {
		return nil, err
	}
	half := time.Duration(cfg.seconds) * time.Second / 2
	rec := newRecorder()

	// pass runs every workload once: the one under test for half, the
	// others for their mix counts. Warm-ups and gates run untraced.
	pass := func(stream string, tr *recorder) (map[string]*phase, error) {
		runCtx := ctx
		if tr != nil {
			runCtx = withRecorder(ctx, tr)
		}
		out := map[string]*phase{}
		for _, w := range workloadOrder {
			clients := min(workloadClients[w], len(sdks))
			op, gate, err := prepareWorkload(ctx, cfg, w, victim, sdks[:clients], stream)
			if err != nil {
				return nil, err
			}
			rep.count(gate)
			dur, n := time.Duration(0), mixOps[w]
			if w == cfg.workload {
				dur, n = half, 0
			}
			st0, err := srv.stats(ctx)
			if err != nil {
				return nil, err
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			p := closedLoop(runCtx, clients, dur, n, op)
			runtime.ReadMemStats(&m1)
			p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
			if p.stats[1], err = srv.stats(ctx); err != nil {
				return nil, err
			}
			p.stats[0] = st0
			rep.count(p)
			out[w] = p
		}
		return out, nil
	}

	before, err := srv.stats(ctx)
	if err != nil {
		return nil, err
	}
	untraced, err := pass("untraced", nil)
	if err != nil {
		return nil, err
	}
	after, err := srv.stats(ctx)
	if err != nil {
		return nil, err
	}
	tracedPhases, err := pass("traced", rec)
	if err != nil {
		return nil, err
	}
	sdkSpans := rec.snapshot()
	if err := layerCalls(withRecorder(ctx, rec), cfg, victim, sdks[0], filepath.Join(dir, "inproc"), rep); err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	spans := rec.snapshot()

	// client and wire: the traced pass's query batches.
	batchSpans := durations(sdkSpans, "client.query_batch")
	kids := children(sdkSpans)
	var codec, wire []float64
	var reqBytes, respBytes int64
	for _, s := range sdkSpans {
		if s.Name != "client.query_batch" {
			continue
		}
		codec = append(codec, selfTime(s, kids[s.ID]))
		for _, k := range kids[s.ID] {
			wire = append(wire, k.dur())
			reqBytes += k.ReqBytes
			respBytes += k.RespBytes
		}
	}
	nq := float64(len(batchSpans) * batchRows)
	qb := tracedPhases["query-batch"]
	rep.add("client.query_batch_ms", median(batchSpans), "ms", len(batchSpans))
	rep.add("client.alloc_kb_per_batch", float64(qb.allocBytes)/1024/float64(max(qb.attempted, 1)), "KiB", qb.attempted)
	rep.add("client.codec_ms", median(codec), "ms", len(codec))
	rep.add("wire.roundtrip_ms", median(wire), "ms", len(wire))
	rep.add("wire.request_bytes_per_query", float64(reqBytes)/nq, "B", len(wire))
	rep.add("wire.response_bytes_per_query", float64(respBytes)/nq, "B", len(wire))

	// Server counters over the untraced pass: coalescing per workload
	// phase, peaks over the whole pass.
	q0, q1 := untraced["query-batch"].stats[0], untraced["query-batch"].stats[1]
	c0, c1 := untraced["campaign"].stats[0], untraced["campaign"].stats[1]
	rep.add("service.coalesce_factor", ratio(q1.BatchedQueries-q0.BatchedQueries, q1.BatchFlushes-q0.BatchFlushes), "queries/flush", int(q1.BatchFlushes-q0.BatchFlushes))
	rep.add("service.campaign_coalesce_factor", ratio(c1.BatchedQueries-c0.BatchedQueries, c1.BatchFlushes-c0.BatchFlushes), "queries/flush", int(c1.BatchFlushes-c0.BatchFlushes))
	rep.add("service.max_batch", float64(after.MaxBatch), "queries", 1)
	rep.add("service.queue_depth_peak", float64(after.QueueDepthPeak), "requests", 1)
	hits, misses := c1.CacheHits-c0.CacheHits, c1.CacheMisses-c0.CacheMisses
	rep.add("memo.hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	spilled := after.SpilledArtifacts - before.SpilledArtifacts
	rep.add("memo.spill_bytes_per_job", ratio(after.SpilledArtifactBytes-before.SpilledArtifactBytes, spilled), "B", int(spilled))

	self := layerSelfTimes(spans)
	for _, layer := range []string{"client", "wire", "service", "crossbar", "oracle", "surrogate", "attack", "dataset", "experiment"} {
		rep.add(layer+".self_ms", self[layer], "ms", len(spans))
	}

	// Tracing overhead: the workload's median operation latency, traced
	// against untraced, on the same server.
	tl, ul := tracedPhases[cfg.workload].lats, untraced[cfg.workload].lats
	rep.add("trace.overhead_ratio", median(tl)/median(ul), "ratio", len(tl))

	path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := rec.writeFile(path); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d spans written to %s", len(spans), path), statsDelta(before, after))
	return rep, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
