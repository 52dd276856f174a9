package surrogate

import (
	"math"
	"testing"

	"xbarsec/internal/crossbar"
	"xbarsec/internal/dataset"
	"xbarsec/internal/nn"
	"xbarsec/internal/oracle"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

// referenceTrain is the per-sample surrogate SGD loop exactly as shipped
// before the batched rewrite (surrogate.go @ PR 1), minus input
// validation (the caller validates).
func referenceTrain(qs *oracle.QuerySet, cfg Config, src *rng.Source) *Model {
	net, err := nn.NewNetwork(qs.Y.Cols(), qs.U.Cols(), nn.ActLinear, nn.LossMSE)
	if err != nil {
		panic(err)
	}
	net.InitXavier(src.Split("init"))
	referenceFit(net, qs, cfg, src.Split("sgd"))
	return &Model{Net: net}
}

// referenceFit is referenceTrain's SGD loop on a given initial network.
func referenceFit(net *nn.Network, qs *oracle.QuerySet, cfg Config, sgd *rng.Source) {
	usePower := cfg.Lambda > 0 && qs.P != nil
	q, n, m := qs.Len(), qs.U.Cols(), qs.Y.Cols()
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 32
	}
	velocity := tensor.New(m, n)
	grad := tensor.New(m, n)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := sgd.Perm(q)
		for start := 0; start < q; start += batch {
			end := start + batch
			if end > q {
				end = q
			}
			grad.Fill(0)
			var colNorms []float64
			if usePower {
				colNorms = net.W.ColAbsSums()
			}
			for _, idx := range perm[start:end] {
				u := qs.U.Row(idx)
				y := qs.Y.Row(idx)
				s := net.W.MatVec(u)
				for i := range s {
					d := 2 * (s[i] - y[i]) / float64(m)
					if d == 0 {
						continue
					}
					row := grad.Row(i)
					for j, uj := range u {
						row[j] += d * uj
					}
				}
				if usePower {
					e := tensor.Dot(u, colNorms) - qs.P[idx]
					coeff := cfg.Lambda * 2 * e
					for i := 0; i < m; i++ {
						wrow := net.W.Row(i)
						grow := grad.Row(i)
						for j, uj := range u {
							if uj == 0 {
								continue
							}
							switch {
							case wrow[j] > 0:
								grow[j] += coeff * uj
							case wrow[j] < 0:
								grow[j] -= coeff * uj
							}
						}
					}
				}
			}
			scale := 1 / float64(end-start)
			velocity.Scale(cfg.Momentum)
			velocity.AddScaled(-cfg.LearningRate*scale, grad)
			net.W.AddMatrix(velocity)
		}
	}
}

// equivQuerySet builds a power-annotated query set from a small trained
// victim on an ideal crossbar: raw outputs, or one-hot labels when mode is
// oracle.LabelOnly.
func equivQuerySet(t *testing.T, queries int, mode oracle.Mode) *oracle.QuerySet {
	t.Helper()
	src := rng.New(31)
	ds, err := dataset.GenerateMNISTLike(src.Split("data"), max(90, queries), dataset.DefaultMNISTLikeConfig())
	if err != nil {
		t.Fatal(err)
	}
	victim, _, err := nn.TrainNew(ds, nn.ActLinear, nn.LossMSE, nn.TrainConfig{
		Epochs: 3, BatchSize: 32, LearningRate: 0.05, Momentum: 0.9, ZeroInit: true,
	}, src.Split("train"))
	if err != nil {
		t.Fatal(err)
	}
	hw, err := crossbar.NewNetwork(victim, crossbar.DefaultDeviceConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := oracle.New(hw, oracle.Config{Mode: mode, MeasurePower: true})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := oracle.Collect(orc, ds, queries, src.Split("collect"))
	if err != nil {
		t.Fatal(err)
	}
	if qs.Len() != queries {
		t.Fatalf("collected %d queries, want %d", qs.Len(), queries)
	}
	return qs
}

// edgeQuerySet is a hand-built 7-input, 3-output query set for the
// power-gradient kernel's edge paths: n = 7 leaves a 3-wide tail after
// the 4-wide register block, the all-zero input rows give exact-zero
// output deltas wherever their target is 0 (s = W·0 = 0), and input
// column 6 is never driven, so a weight initialized to exactly zero there
// keeps sign 0 for the whole run.
func edgeQuerySet() *oracle.QuerySet {
	u := [][]float64{
		{0, 0, 0, 0, 0, 0, 0},
		{0.9, 0.1, 0, 0.4, 0.7, 0.2, 0},
		{0, 0, 0, 0, 0, 0, 0},
		{0.3, 0.8, 0.5, 0, 0.1, 0.6, 0},
		{1, 0, 0.2, 0.9, 0, 0.3, 0},
		{0.2, 0.4, 0.6, 0.8, 1, 0.5, 0},
		{0.5, 0.5, 0, 0.1, 0.3, 0.9, 0},
		{0, 0.7, 0.3, 0.2, 0.6, 0, 0},
		{0.6, 0, 0.9, 0.5, 0.4, 0.1, 0},
		{0, 0, 0, 0, 0, 0, 0},
		{0.1, 0.3, 0.7, 0.6, 0.2, 0.8, 0},
	}
	y := [][]float64{
		{0, 0.5, 0},
		{0.7, -0.2, 0.1},
		{0, 0, 0},
		{-0.3, 0.4, 0.9},
		{0.2, 0.2, -0.5},
		{1.1, 0, 0.3},
		{-0.1, 0.8, 0.2},
		{0.4, -0.6, 0},
		{0.3, 0.1, 0.7},
		{0.25, 0, 0},
		{-0.4, 0.9, 0.6},
	}
	um, err := tensor.NewFromRows(u)
	if err != nil {
		panic(err)
	}
	ym, err := tensor.NewFromRows(y)
	if err != nil {
		panic(err)
	}
	p := make([]float64, len(u))
	for b, row := range u {
		for j, uj := range row {
			p[b] += uj * float64(j+1) / 4
		}
	}
	return &oracle.QuerySet{U: um, Y: ym, P: p, Labels: make([]int, len(u))}
}

// edgeWeights is edgeQuerySet's initial surrogate: exact zeros in the
// never-driven column 6 (sign 0 throughout) and at three driven
// positions (sign 0 until the first update moves them).
var edgeWeights = []float64{
	0.3, -0.2, 0, 0.5, -0.4, 0.1, 0,
	-0.1, 0.6, 0.2, 0, 0.3, -0.5, 0,
	0.4, 0, -0.3, 0.2, 0.1, 0, 0,
}

// TestTrainMatchesPerSampleReference pins the batched surrogate trainer —
// including the register-blocked power-gradient kernel — to the old
// per-sample loop, bit for bit. The rows cover the power loss off and on,
// remainder mini-batches (50 -> 32 + 18; the campaign shape 200 -> 6×32
// + 8; 11 -> 2×4 + 3), one-hot label targets, and, through the
// hand-built edge set (trained from fixed initial weights via fit), the
// kernel's j-tail, exact-zero deltas and zero-sign weights. Under a
// non-bit-exact tensor backend (-tensor.fast) the pin relaxes to a tight
// relative tolerance, as in the nn equivalence suite.
func TestTrainMatchesPerSampleReference(t *testing.T) {
	const relTol = 1e-8
	exact := tensor.Active().BitExact()
	raw50 := equivQuerySet(t, 50, oracle.RawOutput)
	tests := []struct {
		name string
		qs   *oracle.QuerySet
		cfg  Config
		init []float64 // initial weights; nil trains from Train's Xavier init
	}{
		{"raw 50 no power", raw50, Config{Lambda: 0, Epochs: 4, BatchSize: 32, LearningRate: 0.05, Momentum: 0.9}, nil},
		{"raw 50 power", raw50, Config{Lambda: 0.004, Epochs: 4, BatchSize: 32, LearningRate: 0.05, Momentum: 0.9}, nil},
		{"campaign shape", equivQuerySet(t, 200, oracle.RawOutput), Config{Lambda: 0.004, Epochs: 4, BatchSize: 32, LearningRate: 0.05, Momentum: 0.9}, nil},
		{"label-only one-hot", equivQuerySet(t, 50, oracle.LabelOnly), Config{Lambda: 0.004, Epochs: 4, BatchSize: 32, LearningRate: 0.05, Momentum: 0.9}, nil},
		{"hand-built edges", edgeQuerySet(), Config{Lambda: 0.05, Epochs: 5, BatchSize: 4, LearningRate: 0.05, Momentum: 0.9}, edgeWeights},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var got, want *nn.Network
			if tt.init == nil {
				want = referenceTrain(tt.qs, tt.cfg, rng.New(77)).Net
				m, err := Train(tt.qs, tt.cfg, rng.New(77))
				if err != nil {
					t.Fatal(err)
				}
				got = m.Net
			} else {
				var err error
				if got, err = nn.NewNetwork(tt.qs.Y.Cols(), tt.qs.U.Cols(), nn.ActLinear, nn.LossMSE); err != nil {
					t.Fatal(err)
				}
				copy(got.W.Data(), tt.init)
				want = got.Clone()
				referenceFit(want, tt.qs, tt.cfg, rng.New(77))
				fit(got, tt.qs, tt.cfg, rng.New(77))
			}
			gd, wd := got.W.Data(), want.W.Data()
			for i := range gd {
				if exact {
					if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
						t.Fatalf("weight %d: %v vs %v", i, gd[i], wd[i])
					}
					continue
				}
				if d := math.Abs(gd[i] - wd[i]); d > relTol*math.Abs(wd[i])+relTol*relTol {
					t.Fatalf("weight %d off by %g under %s backend: %v vs %v",
						i, d, tensor.ActiveName(), gd[i], wd[i])
				}
			}
		})
	}
}
