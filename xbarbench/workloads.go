package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"xbarsec/api"
	"xbarsec/client"
	"xbarsec/internal/dataset"
	"xbarsec/internal/rng"
	"xbarsec/internal/service"
	"xbarsec/internal/tensor"
)

// Workload shapes.
const (
	batchRows       = 64  // rows per QueryBatch call
	batchWindows    = 8   // distinct 64-row batches generated per seed
	campaignQueries = 200 // oracle budget of one campaign
	campaignLambda  = 0.004
	repeatEvery     = 4 // every 4th campaign repeats the spec from 3 requests earlier
	table1Scale     = 0.01
	goldenSeed      = 7
)

// ---- query-batch -----------------------------------------------------

// batchWant is the in-process answer to one batch: what every served
// query must match bit for bit.
type batchWant struct {
	labels []int
	raw    [][]float64
	power  []float64
}

// queryBatchLoad sends the seed's generated 64-row batches through
// per-client sessions and checks every response.
type queryBatchLoad struct {
	windows  [][][]float64
	want     []batchWant
	sessions []*client.Session
	// remaining is each session's expected Remaining before its next
	// batch; only client c's goroutine touches remaining[c].
	remaining []int
}

// genRows generates n MNIST-like query rows from the workload seed.
func genRows(seed int64, n int) ([][]float64, error) {
	ds, err := dataset.GenerateMNISTLike(rng.New(seed).Split("xbarbench").Split("rows"), n, dataset.DefaultMNISTLikeConfig())
	if err != nil {
		return nil, fmt.Errorf("generating query rows: %w", err)
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = ds.X.Row(i)
	}
	return rows, nil
}

// newQueryBatchLoad generates the batches and their expected answers
// from victim, which must be trained exactly like the server's.
func newQueryBatchLoad(seed int64, victim *service.Victim) (*queryBatchLoad, error) {
	rows, err := genRows(seed, batchRows*batchWindows)
	if err != nil {
		return nil, err
	}
	l := &queryBatchLoad{}
	hw := victim.Hardware()
	xb := hw.Crossbar()
	norm := xb.Config().Vdd * xb.Config().Vdd * xb.Scale()
	for w := 0; w < batchWindows; w++ {
		win := rows[w*batchRows : (w+1)*batchRows]
		outs, ps, err := hw.ForwardPowerBatch(win)
		if err != nil {
			return nil, fmt.Errorf("in-process ForwardPowerBatch: %w", err)
		}
		want := batchWant{labels: make([]int, batchRows), raw: outs, power: make([]float64, batchRows)}
		for i := range win {
			want.labels[i] = tensor.ArgMax(outs[i])
			// The oracle's normalization (paper §II-B): weight units.
			want.power[i] = ps[i] / norm
		}
		l.windows = append(l.windows, win)
		l.want = append(l.want, want)
	}
	return l, nil
}

// open starts one raw-output, power-measuring session per client.
func (l *queryBatchLoad) open(ctx context.Context, sdks []*client.Client) error {
	l.sessions = make([]*client.Session, len(sdks))
	l.remaining = make([]int, len(sdks))
	for c, sdk := range sdks {
		sess, err := sdk.OpenSession(ctx, api.OpenSessionRequest{
			Victim: "mnist", Mode: api.ModeRawOutput, MeasurePower: true, Budget: sessionBudget,
		})
		if err != nil {
			return fmt.Errorf("opening session: %w", err)
		}
		l.sessions[c] = sess
		l.remaining[c] = sess.Info().Remaining
	}
	return nil
}

// op sends client c's i-th batch: the clients walk the windows half a
// cycle apart.
func (l *queryBatchLoad) op(ctx context.Context, c, i int) error {
	w := (i + c*batchWindows/2) % batchWindows
	var resp api.QueryBatchResponse
	err := traced(ctx, "client.query_batch", func(ctx context.Context) error {
		var err error
		resp, err = l.sessions[c].QueryBatch(ctx, l.windows[w])
		return err
	})
	if err != nil {
		return err
	}
	return l.check(c, w, resp)
}

func (l *queryBatchLoad) check(c, w int, resp api.QueryBatchResponse) error {
	wantRemaining := l.remaining[c] - batchRows
	l.remaining[c] = resp.Remaining
	if resp.Remaining != wantRemaining {
		return fmt.Errorf("gate: session remaining %d after a batch, want %d", resp.Remaining, wantRemaining)
	}
	want := l.want[w]
	if len(resp.Results) != batchRows {
		return fmt.Errorf("gate: %d batch results, want %d", len(resp.Results), batchRows)
	}
	for i, r := range resp.Results {
		if r.Error != nil {
			return fmt.Errorf("gate: batch row %d refused: %v", i, r.Error)
		}
		if r.Label != want.labels[i] || !sameBits(r.Power, want.power[i]) || !sameVec(r.Raw, want.raw[i]) {
			return fmt.Errorf("gate: batch row %d differs from in-process ForwardPowerBatch (label %d/%d, power %v/%v)",
				i, r.Label, want.labels[i], r.Power, want.power[i])
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// ---- campaign --------------------------------------------------------

// campaignLoad runs Fig. 5 campaigns; every 4th request of a client
// repeats that client's spec from 3 requests earlier and must be served
// from the memo cache.
type campaignLoad struct {
	seed   int64
	stream string
	sdks   []*client.Client
	// hist[c][i] is client c's i-th result (nil if it failed); only
	// client c's goroutine touches hist[c].
	hist [][]*api.CampaignResult
}

func newCampaignLoad(seed int64, stream string, sdks []*client.Client) *campaignLoad {
	return &campaignLoad{seed: seed, stream: stream, sdks: sdks, hist: make([][]*api.CampaignResult, len(sdks))}
}

func isRepeat(i int) bool { return i%repeatEvery == repeatEvery-1 }

func (l *campaignLoad) spec(c, i int) api.CampaignRequest {
	if isRepeat(i) {
		i -= repeatEvery - 1
	}
	return api.CampaignRequest{
		Victim: "mnist", Mode: api.ModeRawOutput,
		Seed: specSeed(l.seed, l.stream, c, i), Queries: campaignQueries, Lambda: campaignLambda,
	}
}

func (l *campaignLoad) op(ctx context.Context, c, i int) error {
	var res *api.CampaignResult
	err := traced(ctx, "client.run_campaign", func(ctx context.Context) error {
		var err error
		res, err = l.sdks[c].RunCampaign(ctx, l.spec(c, i))
		return err
	})
	l.hist[c] = append(l.hist[c], res)
	if err != nil {
		return err
	}
	if res.QueriesCharged != res.Queries || res.Queries != campaignQueries {
		return fmt.Errorf("gate: campaign charged %d of %d queries", res.QueriesCharged, res.Queries)
	}
	if isRepeat(i) {
		orig := l.hist[c][i-(repeatEvery-1)]
		if orig == nil {
			return nil // the original failed and was counted then
		}
		if !res.Cached {
			return fmt.Errorf("gate: repeated campaign (seed %d) was not served from cache", res.Seed)
		}
		if !sameCampaign(*orig, *res) {
			return fmt.Errorf("gate: repeated campaign (seed %d) differs from its original", res.Seed)
		}
	}
	return nil
}

// sameCampaign compares every field but Cached, floats bit for bit.
func sameCampaign(a, b api.CampaignResult) bool {
	return a.Victim == b.Victim && a.Mode == b.Mode && a.Seed == b.Seed &&
		a.Queries == b.Queries && sameBits(a.Lambda, b.Lambda) && sameBits(a.AttackEps, b.AttackEps) &&
		sameBits(a.CleanAccuracy, b.CleanAccuracy) && sameBits(a.SurrogateAccuracy, b.SurrogateAccuracy) &&
		sameBits(a.AdvAccuracy, b.AdvAccuracy) && a.QueriesCharged == b.QueriesCharged
}

// ---- table1-job ------------------------------------------------------

// table1Load runs Table I jobs with a fresh seed each, so every job
// trains its victims cold.
type table1Load struct {
	seed   int64
	stream string
	sdks   []*client.Client
}

func (l *table1Load) op(ctx context.Context, c, i int) error {
	spec := api.ExperimentSpec{Name: "table1", Seed: specSeed(l.seed, l.stream, c, i), Scale: table1Scale, Runs: 1}
	var res *api.ExperimentResult
	err := traced(ctx, "client.run_experiment", func(ctx context.Context) error {
		var err error
		res, err = l.sdks[c].RunExperiment(ctx, spec)
		return err
	})
	if err != nil {
		return err
	}
	if res.Cached || res.Name != "table1" || res.Render == "" || len(res.Result) == 0 {
		return fmt.Errorf("gate: table1 job (seed %d) came back cached=%v name=%q with %d render bytes",
			spec.Seed, res.Cached, res.Name, len(res.Render))
	}
	return nil
}

// table1GoldenGate runs Table I at the golden options (seed 7, scale
// 0.01, runs 1) and requires its render to equal the committed golden
// file byte for byte.
func table1GoldenGate(ctx context.Context, root string, sdk *client.Client) error {
	want, err := os.ReadFile(filepath.Join(root, "internal", "experiment", "testdata", "golden", "table1.txt"))
	if err != nil {
		return fmt.Errorf("reading the table1 golden: %w", err)
	}
	res, err := sdk.RunExperiment(ctx, api.ExperimentSpec{Name: "table1", Seed: goldenSeed, Scale: table1Scale, Runs: 1})
	if err != nil {
		return err
	}
	if !bytes.Equal([]byte(res.Render), want) {
		return fmt.Errorf("gate: table1 at seed %d renders %d bytes that differ from the golden (%d bytes)",
			goldenSeed, len(res.Render), len(want))
	}
	return nil
}
