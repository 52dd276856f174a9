package main

import (
	"context"
	"fmt"
	"time"

	"xbarsec/client"
	"xbarsec/internal/attack"
	"xbarsec/internal/dataset"
	"xbarsec/internal/experiment"
	"xbarsec/internal/oracle"
	"xbarsec/internal/pool"
	"xbarsec/internal/rng"
	"xbarsec/internal/service"
	"xbarsec/internal/surrogate"
	"xbarsec/internal/tensor"
)

// Repetitions of each in-process layer call; each metric is the median.
const (
	fastReps = 50 // sub-millisecond calls
	slowReps = 5
	jobReps  = 3 // Table I runs, about a second each cold
)

// layerCalls calls each layer's public functions in-process, one span
// around every call, on the same victim and query rows the server
// workloads use, and records the per-layer metrics. ctx carries the
// recorder; sdk reaches the idle server for the job-overhead pairs.
func layerCalls(ctx context.Context, cfg config, victim *service.Victim, sdk *client.Client, stateDir string, rep *report) error {
	med := map[string]float64{}
	// timed runs fn reps times under spans named name and keeps the
	// median duration.
	timed := func(name string, reps int, fn func(rep int) error) error {
		for r := 0; r < reps; r++ {
			if err := traced(ctx, name, func(context.Context) error { return fn(r) }); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		med[name] = median(durations(recorderOf(ctx).snapshot(), name))
		return nil
	}

	// dataset: synthesize both victims' data at Table I's golden sizes.
	err := timed("dataset.synth", slowReps, func(r int) error {
		src := rng.New(specSeed(cfg.seed, "synth", 0, r))
		opts := dataset.LoadOptions{TrainN: 200, TestN: 100}
		if _, _, err := dataset.Load(dataset.MNIST, src.Split("mnist"), opts); err != nil {
			return err
		}
		_, _, err := dataset.Load(dataset.CIFAR10, src.Split("cifar10"), opts)
		return err
	})
	if err != nil {
		return err
	}

	// crossbar: the fused batch kernel on the query-batch rows.
	rows, err := genRows(cfg.seed, batchRows*batchWindows)
	if err != nil {
		return err
	}
	hw := victim.Hardware()
	if err := timed("crossbar.forward_power_batch", fastReps, func(r int) error {
		w := r % batchWindows
		_, _, err := hw.ForwardPowerBatch(rows[w*batchRows : (w+1)*batchRows])
		return err
	}); err != nil {
		return err
	}

	// service: an Opened, fsyncing in-process service on the same victim.
	svc, _, err := service.Open(service.Config{
		Seed: serverSeed, Workers: serverWorkers, MaxConcurrentJobs: serverJobs,
		DefaultSessionBudget: sessionBudget, StateDir: stateDir, JournalFsync: true,
	})
	if err != nil {
		return fmt.Errorf("opening the in-process service: %w", err)
	}
	defer svc.Close()
	if err := svc.Register(victim); err != nil {
		return err
	}
	sess, err := svc.OpenSession("mnist", service.SessionConfig{Mode: oracle.RawOutput, MeasurePower: true, Budget: sessionBudget})
	if err != nil {
		return err
	}
	if err := timed("service.query_batch", fastReps, func(r int) error {
		w := r % batchWindows
		_, err := sess.QueryBatch(rows[w*batchRows : (w+1)*batchRows])
		return err
	}); err != nil {
		return err
	}

	// The campaign pipeline's phases, one call each, on the victim's
	// hardware directly (no coalescer, journal or spill), each repetition
	// followed by a whole service campaign; durable.overhead_ms is the
	// median of the paired differences, so drift in machine speed cancels.
	spec := func(r int) service.CampaignSpec {
		return service.CampaignSpec{
			Victim: "mnist", Mode: oracle.RawOutput, Seed: specSeed(cfg.seed, "inproc-campaign", 0, r),
			Queries: campaignQueries, Lambda: campaignLambda,
		}
	}
	var qs *oracle.QuerySet
	var model *surrogate.Model
	var advs [][]float64
	var durable []float64
	test := victim.Test()
	oh := test.OneHot()
	for r := 0; r < slowReps; r++ {
		src := rng.New(specSeed(cfg.seed, "pipeline", 0, r))
		t0 := time.Now()
		if err := timed("oracle.collect", 1, func(int) error {
			orc, err := oracle.New(hw, oracle.Config{Mode: oracle.RawOutput, MeasurePower: true, Budget: campaignQueries})
			if err != nil {
				return err
			}
			qs, err = oracle.Collect(orc, victim.Train(), campaignQueries, src.Split("collect"))
			return err
		}); err != nil {
			return err
		}
		if err := timed("surrogate.train", 1, func(int) error {
			sc := surrogate.DefaultConfig()
			sc.Lambda = campaignLambda
			var err error
			model, err = surrogate.Train(qs, sc, src.Split("surrogate"))
			return err
		}); err != nil {
			return err
		}
		if err := timed("attack.fgsm", 1, func(int) error {
			advs = make([][]float64, test.Len())
			return pool.DoErr(serverWorkers, test.Len(), func(i int) error {
				adv, err := attack.FGSM(model.Net, tensor.CloneVec(test.X.Row(i)), oh.Row(i), 0.1)
				advs[i] = adv
				return err
			})
		}); err != nil {
			return err
		}
		if err := timed("crossbar.predict_batch", 1, func(int) error {
			_, err := hw.PredictBatch(advs)
			return err
		}); err != nil {
			return err
		}
		pipeline := since(t0)
		t1 := time.Now()
		if err := timed("service.campaign_miss", 1, func(int) error {
			res, err := svc.RunCampaign(spec(r))
			if err == nil && res.Cached {
				err = fmt.Errorf("campaign seed %d unexpectedly cached", res.Seed)
			}
			return err
		}); err != nil {
			return err
		}
		durable = append(durable, since(t1)-pipeline)
	}
	if err := timed("service.campaign_hit", slowReps, func(r int) error {
		res, err := svc.RunCampaign(spec(r))
		if err == nil && !res.Cached {
			err = fmt.Errorf("repeated campaign seed %d not cached", res.Seed)
		}
		return err
	}); err != nil {
		return err
	}

	// experiment: Table I cold (empty victim store), then warm, then the
	// same kind of job through the SDK on the (otherwise idle) server;
	// service.job_overhead_ms is the median of SDK job minus cold run.
	var trained, storeMB, overhead []float64
	for r := 0; r < jobReps; r++ {
		opts := experiment.Options{Seed: specSeed(cfg.seed, "inproc-table1", 0, r), Scale: table1Scale, Runs: 1, Workers: serverWorkers}
		experiment.ResetVictimStore()
		if err := timed("experiment.table1_cold", 1, func(int) error {
			_, err := experiment.RunTable1(opts)
			return err
		}); err != nil {
			return err
		}
		st := experiment.StoreStats()
		trained = append(trained, float64(st.Trainings))
		storeMB = append(storeMB, float64(st.Bytes)/(1<<20))
		if err := timed("experiment.table1_warm", 1, func(int) error {
			_, err := experiment.RunTable1(opts)
			return err
		}); err != nil {
			return err
		}
		t0 := time.Now()
		jobs := &table1Load{seed: cfg.seed, stream: "probe", sdks: []*client.Client{sdk}}
		if err := jobs.op(ctx, 0, r); err != nil {
			return err
		}
		overhead = append(overhead, since(t0)-durations(recorderOf(ctx).snapshot(), "experiment.table1_cold")[r])
	}
	experiment.ResetVictimStore()

	rep.add("service.query_batch_ms", med["service.query_batch"], "ms", fastReps)
	rep.add("service.campaign_miss_ms", med["service.campaign_miss"], "ms", slowReps)
	rep.add("service.campaign_hit_ms", med["service.campaign_hit"], "ms", slowReps)
	rep.add("crossbar.forward_power_batch_ms", med["crossbar.forward_power_batch"], "ms", fastReps)
	rep.add("crossbar.predict_batch_ms", med["crossbar.predict_batch"], "ms", slowReps)
	rep.add("oracle.collect_ms", med["oracle.collect"], "ms", slowReps)
	rep.add("surrogate.train_ms", med["surrogate.train"], "ms", slowReps)
	rep.add("attack.fgsm_ms", med["attack.fgsm"], "ms", slowReps)
	rep.add("durable.overhead_ms", median(durable), "ms", slowReps)
	rep.add("dataset.synth_ms", med["dataset.synth"], "ms", slowReps)
	cold, warm := med["experiment.table1_cold"], med["experiment.table1_warm"]
	rep.add("experiment.table1_cold_ms", cold, "ms", jobReps)
	rep.add("experiment.table1_warm_ms", warm, "ms", jobReps)
	rep.add("experiment.victim_build_ms", cold-warm, "ms", jobReps)
	rep.add("nn.train_ms", cold-warm-med["dataset.synth"], "ms", jobReps)
	rep.add("experiment.victims_trained_per_job", median(trained), "count", jobReps)
	rep.add("experiment.victim_store_mb", median(storeMB), "MiB", jobReps)
	rep.add("service.job_overhead_ms", median(overhead), "ms", jobReps)
	return nil
}
