package service

import (
	"errors"
	"fmt"
	"math"

	"xbarsec/api"
	"xbarsec/internal/attack"
	"xbarsec/internal/oracle"
	"xbarsec/internal/pool"
	"xbarsec/internal/rng"
	"xbarsec/internal/sidechannel"
	"xbarsec/internal/surrogate"
	"xbarsec/internal/tensor"
)

// CampaignSpec fully determines one model-extraction-plus-evasion
// campaign: collect a budgeted query set from the victim, train a
// surrogate with the paper's joint loss (Eq. 9), craft FGSM adversarial
// examples on the surrogate, and measure the oracle's accuracy on them —
// one cell of the paper's Figure 5 grid, as a service job. Every random
// choice derives from Seed via rng.Split, so against a noise-free
// victim a spec is also the campaign's cache key and replaying it is
// bit-identical at any worker count. Noisy victims' reads depend on
// concurrent traffic, so their campaigns run uncached.
// CampaignSpec is the internal job spec; its wire form is
// api.CampaignRequest (the HTTP layer converts, parsing the mode).
type CampaignSpec struct {
	// Victim names the registered victim to attack.
	Victim string
	// Mode is the disclosure mode (label-only or raw-output).
	Mode oracle.Mode
	// Seed drives collection shuffling, surrogate init and SGD order.
	Seed int64
	// Queries is the attacker's oracle budget (Figure 5's cost axis).
	Queries int
	// Lambda is the power-loss weight λ of Eq. (9); 0 ignores power.
	Lambda float64
	// SurrogateEpochs overrides surrogate training length (0 = default).
	SurrogateEpochs int
	// AttackEps is the FGSM strength (0 = the paper's Figure 5 value 0.1).
	AttackEps float64
}

// withDefaults normalizes the optional fields.
func (c CampaignSpec) withDefaults() CampaignSpec {
	if c.AttackEps == 0 {
		c.AttackEps = 0.1
	}
	return c
}

// validate rejects a (defaulted) spec the pipeline cannot run as a
// client error, before any journal record or cache flight exists.
func (c CampaignSpec) validate() error {
	if c.Queries <= 0 {
		return badRequestf("service: campaign query budget %d must be positive", c.Queries)
	}
	switch c.Mode {
	case oracle.LabelOnly, oracle.RawOutput:
	default:
		return badRequestf("service: unknown disclosure mode %v", c.Mode)
	}
	if math.IsNaN(c.Lambda) || math.IsInf(c.Lambda, 0) || c.Lambda < 0 {
		return badRequestf("service: campaign lambda %v must be non-negative and finite", c.Lambda)
	}
	if math.IsNaN(c.AttackEps) || math.IsInf(c.AttackEps, 0) || c.AttackEps < 0 {
		return badRequestf("service: campaign attack eps %v must be non-negative and finite", c.AttackEps)
	}
	if c.SurrogateEpochs < 0 || c.SurrogateEpochs > maxSurrogateEpochs {
		return badRequestf("service: campaign surrogate epochs %d outside [0, %d]", c.SurrogateEpochs, maxSurrogateEpochs)
	}
	return nil
}

// campaignResultsVersion is the campaign job's results version, bumped
// by hand whenever a code change moves a campaign's full-precision
// result (see engine.Experiment.ResultsVersion).
//
// 1: the surrogate's power gradient is summed in factored order.
const campaignResultsVersion = 1

// key is the artifact-cache identity: every field that influences the
// result, nothing that doesn't (worker count deliberately excluded — the
// result is bit-identical at any), and the results version. A
// non-reference tensor backend shifts the numbers within its tolerance
// bound, so it suffixes the key rather than aliasing the reference
// artifact.
func (c CampaignSpec) key() string {
	return fmt.Sprintf("campaign|%s|%s|%d|%d|%g|%d|%g",
		c.Victim, c.Mode, c.Seed, c.Queries, c.Lambda, c.SurrogateEpochs, c.AttackEps) +
		resultsVersionSuffix(campaignResultsVersion) + backendKeySuffix()
}

// CampaignResult is the deliverable of one campaign job — served
// verbatim on the wire, so it is defined by the public protocol
// package.
type CampaignResult = api.CampaignResult

// RunCampaign executes (or serves from cache) one campaign job. Jobs are
// admitted through the service gate, so at most Config.MaxConcurrentJobs
// run at once; within a job the per-sample attack evaluation fans out
// across Config.Workers via the deterministic pool. In a cluster the
// victim's ring owner serves all of its campaigns; other nodes redirect.
func (s *Service) RunCampaign(spec CampaignSpec) (*CampaignResult, error) {
	return s.runCampaignJob(spec, true)
}

// runCampaignJob prepares a campaign spec and runs it through
// runSpecJob, after ring admission when route is set. Journal replay
// (drainPendingSync) passes route=false: a journaled job is this node's
// to finish regardless of membership changes across the restart.
func (s *Service) runCampaignJob(spec CampaignSpec, route bool) (*CampaignResult, error) {
	if route {
		if err := s.routeVictim(spec.Victim); err != nil {
			return nil, err
		}
	}
	if s.isClosed() {
		return nil, ErrServiceClosed
	}
	spec = spec.withDefaults()
	v, err := s.Victim(spec.Victim)
	if err != nil {
		return nil, err
	}
	if v.train == nil || v.test == nil {
		return nil, fmt.Errorf("service: victim %q has no data splits for campaigns", v.name)
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	key := spec.key()
	if v.Noisy() {
		// A noisy victim's reads depend on concurrent traffic, so its
		// results are not functions of the spec: run them uncached.
		key = ""
	}
	launch := &journalRecord{Op: opLaunch, ID: key, Campaign: &spec}
	res, err := runSpecJob(s, key, launch, nil, func() (*CampaignResult, error) {
		return s.runCampaign(spec, v)
	})
	if err != nil {
		return nil, err
	}
	s.campaigns.Add(1)
	return res, nil
}

// runCampaign is the deterministic pipeline body.
func (s *Service) runCampaign(spec CampaignSpec, v *Victim) (*CampaignResult, error) {
	root := rng.New(spec.Seed).Split("campaign").Split(v.name)
	hw := v.oracleHardware()
	orc, err := oracle.New(hw, oracle.Config{
		Mode: spec.Mode, MeasurePower: true, Budget: spec.Queries,
	})
	if err != nil {
		return nil, err
	}
	qs, err := oracle.Collect(orc, v.train, spec.Queries, root.Split("collect"))
	if err != nil {
		return nil, fmt.Errorf("service: campaign collection: %w", err)
	}
	sCfg := surrogate.DefaultConfig()
	sCfg.Lambda = spec.Lambda
	if spec.SurrogateEpochs > 0 {
		sCfg.Epochs = spec.SurrogateEpochs
	}
	model, err := surrogate.Train(qs, sCfg, root.Split("surrogate"))
	if err != nil {
		return nil, fmt.Errorf("service: surrogate training: %w", err)
	}
	clean, err := v.clean()
	if err != nil {
		return nil, err
	}
	oh := v.test.OneHot()
	advs := make([][]float64, v.test.Len())
	err = pool.DoErr(s.cfg.Workers, v.test.Len(), func(i int) error {
		adv, err := attack.FGSM(model.Net, tensor.CloneVec(v.test.X.Row(i)), oh.Row(i), spec.AttackEps)
		if err != nil {
			return err
		}
		advs[i] = adv
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("service: crafting adversarial examples: %w", err)
	}
	labels, err := predictAll(v, advs)
	if err != nil {
		return nil, err
	}
	correct := 0
	for i, l := range labels {
		if l == v.test.Labels[i] {
			correct++
		}
	}
	return &CampaignResult{
		Victim:            v.name,
		Mode:              api.Mode(spec.Mode.String()),
		Seed:              spec.Seed,
		Queries:           spec.Queries,
		Lambda:            spec.Lambda,
		AttackEps:         spec.AttackEps,
		CleanAccuracy:     clean,
		SurrogateAccuracy: model.Accuracy(v.test.X, v.test.Labels),
		AdvAccuracy:       float64(correct) / float64(v.test.Len()),
		QueriesCharged:    orc.Queries(),
	}, nil
}

// oracleHardware returns the hardware view campaign jobs query: always
// the coalescer. For a noise-free victim coalesced reads are
// bit-identical to direct scalar reads, so replay determinism is
// unaffected, and the coalescer's fused ForwardPower path serves each
// power-measuring collection query with one array pass instead of two —
// halving the dominant cost of a campaign's collection phase. For a
// noisy victim the coalescer is also the required serializer (every
// read mutates the noise stream; results then depend on concurrent
// traffic, as real shared noisy hardware does).
func (v *Victim) oracleHardware() oracle.Hardware {
	return coalescedHW{v: v}
}

// predictAll classifies a batch of inputs on the victim, routing through
// the batched predictor (noise-free) or the coalescer (noisy).
func predictAll(v *Victim, us [][]float64) ([]int, error) {
	if !v.Noisy() {
		return v.hw.PredictBatch(us)
	}
	c := coalescedHW{v: v}
	labels := make([]int, len(us))
	for i, u := range us {
		l, err := c.Predict(u)
		if err != nil {
			return nil, err
		}
		labels[i] = l
	}
	return labels, nil
}

// ExtractSpec determines one power-side-channel extraction job: basis
// queries through a measurement probe (Section III's procedure), with
// optional instrument noise. It is served verbatim on the wire, so it
// is defined by the public protocol package.
type ExtractSpec = api.ExtractRequest

// extractDefaults normalizes an extraction spec's optional fields.
func extractDefaults(e ExtractSpec) ExtractSpec {
	if e.Repeats <= 0 {
		e.Repeats = 1
	}
	return e
}

// extractKey is the artifact-cache identity: (victim, probe config,
// seed), backend-suffixed like campaign keys.
func extractKey(e ExtractSpec) string {
	return fmt.Sprintf("extract|%s|%d|%g|%d", e.Victim, e.Repeats, e.NoiseStd, e.Seed) +
		backendKeySuffix()
}

// ExtractResult carries the recovered power-channel signals (the wire
// type).
type ExtractResult = api.ExtractResult

// probeMeter adapts the coalescer to the sidechannel.PowerMeter
// interface so extraction jobs ride the same batched serving path as
// sessions.
type probeMeter struct{ c coalescedHW }

func (m probeMeter) Power(u []float64) (float64, error) { return m.c.Power(u) }
func (m probeMeter) Inputs() int                        { return m.c.Inputs() }

// RunExtract executes (or serves from cache) one extraction job. In a
// cluster the victim's ring owner serves it; other nodes redirect.
func (s *Service) RunExtract(spec ExtractSpec) (*ExtractResult, error) {
	return s.runExtractJob(spec, true)
}

// runExtractJob is runCampaignJob's extraction twin.
func (s *Service) runExtractJob(spec ExtractSpec, route bool) (*ExtractResult, error) {
	if route {
		if err := s.routeVictim(spec.Victim); err != nil {
			return nil, err
		}
	}
	if s.isClosed() {
		return nil, ErrServiceClosed
	}
	spec = extractDefaults(spec)
	v, err := s.Victim(spec.Victim)
	if err != nil {
		return nil, err
	}
	if spec.NoiseStd < 0 {
		return nil, fmt.Errorf("service: negative probe noise %v", spec.NoiseStd)
	}
	key := extractKey(spec)
	if v.Noisy() {
		key = "" // not a function of the spec (see runCampaignJob)
	}
	launch := &journalRecord{Op: opLaunch, ID: key, Extract: &spec}
	return runSpecJob(s, key, launch, nil, func() (*ExtractResult, error) {
		return s.runExtract(spec, v)
	})
}

func (s *Service) runExtract(spec ExtractSpec, v *Victim) (*ExtractResult, error) {
	var src *rng.Source
	if spec.NoiseStd > 0 {
		src = rng.New(spec.Seed).Split("extract").Split(v.name)
	}
	probe, err := sidechannel.NewProbe(probeMeter{c: coalescedHW{v: v}}, spec.NoiseStd, src)
	if err != nil {
		return nil, err
	}
	signals, err := probe.ExtractColumnSignals(spec.Repeats)
	if err != nil {
		if errors.Is(err, ErrVictimClosed) {
			return nil, err
		}
		return nil, fmt.Errorf("service: extraction: %w", err)
	}
	xb := v.hw.Crossbar()
	norms := sidechannel.CalibrateColumnNorms(signals, xb.Config(), v.Outputs(), xb.Scale())
	return &ExtractResult{
		Victim:       v.name,
		Repeats:      spec.Repeats,
		NoiseStd:     spec.NoiseStd,
		Seed:         spec.Seed,
		Signals:      signals,
		Norms:        norms,
		ProbeQueries: probe.Queries(),
	}, nil
}
