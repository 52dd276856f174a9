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

// batchGrad writes one mini-batch's summed Eq. (9) gradient into grad
// (overwritten), in the summation order a reference pins.
type batchGrad func(net *nn.Network, qs *oracle.QuerySet, cfg Config, idxs []int, grad *tensor.Matrix)

// referenceTrain is the scalar surrogate SGD loop the batched trainer
// replaced, minus input validation (the caller validates), with the
// mini-batch gradient built by g.
func referenceTrain(qs *oracle.QuerySet, cfg Config, src *rng.Source, g batchGrad) *Model {
	net, err := nn.NewNetwork(qs.Y.Cols(), qs.U.Cols(), nn.ActLinear, nn.LossMSE)
	if err != nil {
		panic(err)
	}
	net.InitXavier(src.Split("init"))
	referenceFit(net, qs, cfg, src.Split("sgd"), g)
	return &Model{Net: net}
}

// referenceFit is referenceTrain's SGD loop on a given initial network.
func referenceFit(net *nn.Network, qs *oracle.QuerySet, cfg Config, sgd *rng.Source, g batchGrad) {
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
			g(net, qs, cfg, perm[start:end], grad)
			scale := 1 / float64(end-start)
			velocity.Scale(cfg.Momentum)
			velocity.AddScaled(-cfg.LearningRate*scale, grad)
			net.W.AddMatrix(velocity)
		}
	}
}

// powerCoeffs returns each sample's power-loss coefficient
// 2λ·(p̂(u_b) − p_b) at the current weights, or nil when the power term
// is off.
func powerCoeffs(net *nn.Network, qs *oracle.QuerySet, cfg Config, idxs []int) []float64 {
	if cfg.Lambda <= 0 || qs.P == nil {
		return nil
	}
	colNorms := net.W.ColAbsSums()
	coeff := make([]float64, len(idxs))
	for b, idx := range idxs {
		e := tensor.Dot(qs.U.Row(idx), colNorms) - qs.P[idx]
		coeff[b] = cfg.Lambda * 2 * e
	}
	return coeff
}

// outputDeltas returns each sample's output-MSE delta 2(Wu − y)/M.
func outputDeltas(net *nn.Network, qs *oracle.QuerySet, idxs []int) [][]float64 {
	m := float64(net.Outputs())
	ds := make([][]float64, len(idxs))
	for b, idx := range idxs {
		s, y := net.W.MatVec(qs.U.Row(idx)), qs.Y.Row(idx)
		ds[b] = make([]float64, len(s))
		for i := range s {
			ds[b][i] = 2 * (s[i] - y[i]) / m
		}
	}
	return ds
}

// perSampleGrad is the per-sample loop's order: every sample adds its
// output-MSE outer product, then its power term, to the whole gradient.
func perSampleGrad(net *nn.Network, qs *oracle.QuerySet, cfg Config, idxs []int, grad *tensor.Matrix) {
	grad.Fill(0)
	ds, coeff := outputDeltas(net, qs, idxs), powerCoeffs(net, qs, cfg, idxs)
	for b, idx := range idxs {
		u := qs.U.Row(idx)
		for i, d := range ds[b] {
			if d == 0 {
				continue
			}
			row := grad.Row(i)
			for j, uj := range u {
				row[j] += d * uj
			}
		}
		if coeff == nil {
			continue
		}
		for i := 0; i < net.Outputs(); i++ {
			wrow, grow := net.W.Row(i), grad.Row(i)
			for j, uj := range u {
				if uj == 0 {
					continue
				}
				switch {
				case wrow[j] > 0:
					grow[j] += coeff[b] * uj
				case wrow[j] < 0:
					grow[j] -= coeff[b] * uj
				}
			}
		}
	}
}

// factoredGrad is the factored order, element by element: g_ij sums
// d_b[i]·u_b[j] over the samples in order, then adds sign(w_ij)·c_j once,
// where c_j sums coeff_b·u_b[j] over the samples in order.
func factoredGrad(net *nn.Network, qs *oracle.QuerySet, cfg Config, idxs []int, grad *tensor.Matrix) {
	ds, coeff := outputDeltas(net, qs, idxs), powerCoeffs(net, qs, cfg, idxs)
	for i := 0; i < grad.Rows(); i++ {
		for j := 0; j < grad.Cols(); j++ {
			var g, c float64
			for b, idx := range idxs {
				g += ds[b][i] * qs.U.At(idx, j)
				if coeff != nil {
					c += coeff[b] * qs.U.At(idx, j)
				}
			}
			switch w := net.W.At(i, j); {
			case w > 0:
				g += c
			case w < 0:
				g -= c
			}
			grad.Set(i, j, g)
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
// power gradient's edge paths: n = 7 is narrower than any kernel block,
// the all-zero input rows give exact-zero output deltas wherever their
// target is 0 (s = W·0 = 0), and input
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

// TestTrainMatchesPerSampleReference pins the batched surrogate trainer
// to two scalar references. Against the per-element reference of the
// factored power gradient (factoredGrad) it is bit for bit; against the
// old per-sample loop (perSampleGrad), whose sum the factoring
// reassociates, it holds within a tight relative tolerance. The rows
// cover the power loss off and on, remainder mini-batches (50 -> 32 + 18;
// the campaign shape 200 -> 6×32 + 8; 11 -> 2×4 + 3), one-hot label
// targets, and, through the hand-built edge set (trained from fixed
// initial weights via fit), exact-zero deltas and zero-sign weights.
// Under a non-bit-exact tensor backend (-tensor.fast) the factored pin
// relaxes to the same tolerance, as in the nn equivalence suite.
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
			// train runs the reference loop with gradient order g, or the
			// package's trainer when g is nil, from tt's initial weights.
			train := func(g batchGrad) *nn.Network {
				if tt.init == nil {
					if g != nil {
						return referenceTrain(tt.qs, tt.cfg, rng.New(77), g).Net
					}
					m, err := Train(tt.qs, tt.cfg, rng.New(77))
					if err != nil {
						t.Fatal(err)
					}
					return m.Net
				}
				net, err := nn.NewNetwork(tt.qs.Y.Cols(), tt.qs.U.Cols(), nn.ActLinear, nn.LossMSE)
				if err != nil {
					t.Fatal(err)
				}
				copy(net.W.Data(), tt.init)
				if g != nil {
					referenceFit(net, tt.qs, tt.cfg, rng.New(77), g)
				} else {
					fit(net, tt.qs, tt.cfg, rng.New(77))
				}
				return net
			}
			got := train(nil).W.Data()
			for _, ref := range []struct {
				name  string
				g     batchGrad
				exact bool
			}{
				{"factored", factoredGrad, exact},
				{"per-sample", perSampleGrad, false},
			} {
				want := train(ref.g).W.Data()
				for i := range got {
					if ref.exact {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s reference, weight %d: %v vs %v", ref.name, i, got[i], want[i])
						}
						continue
					}
					if d := math.Abs(got[i] - want[i]); d > relTol*math.Abs(want[i])+relTol*relTol {
						t.Fatalf("%s reference, weight %d off by %g under %s backend: %v vs %v",
							ref.name, i, d, tensor.ActiveName(), got[i], want[i])
					}
				}
			}
		})
	}
}
