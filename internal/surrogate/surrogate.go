// Package surrogate implements the paper's Section IV black-box attack:
// a surrogate single-layer network is trained on oracle query data with
// the joint loss of Eq. (9),
//
//	L = L_out + λ·L_power,
//
// where L_out is the MSE between surrogate and oracle outputs (or one-hot
// oracle labels in label-only mode) and L_power is the MSE between the
// oracle's measured power and the surrogate's differentiable power
// prediction p̂(u) = Σ_j u_j Σ_i |ŵ_ij|. Under the paper's normalized-
// crossbar convention (§II-B) the measured power equals exactly this
// feature evaluated on the oracle's weights, so no calibration parameter
// is needed and the column-1-norm structure of Eq. (5)/(6) transfers
// directly into the surrogate's weight magnitudes.
//
// The package also provides the algebraic extraction baseline the paper
// notes in Section IV: with Q >= N raw-output queries, W = (U†Ŷ)ᵀ exactly
// and power information is useless.
package surrogate

import (
	"errors"
	"fmt"
	"math"

	"xbarsec/internal/linalg"
	"xbarsec/internal/nn"
	"xbarsec/internal/oracle"
	"xbarsec/internal/rng"
	"xbarsec/internal/tensor"
)

// Config controls surrogate training.
type Config struct {
	// Lambda is the power loss weight λ of Eq. (9); 0 disables the power
	// term (the paper sweeps {0, 0.002, ..., 0.01}).
	Lambda float64
	// Epochs is the number of passes over the query set.
	Epochs int
	// BatchSize is the mini-batch size; <= 0 defaults to 32.
	BatchSize int
	// LearningRate is the SGD step size.
	LearningRate float64
	// Momentum is the classical momentum coefficient in [0, 1).
	Momentum float64
}

// DefaultConfig returns the training settings used by the experiments.
func DefaultConfig() Config {
	return Config{Lambda: 0, Epochs: 40, BatchSize: 32, LearningRate: 0.05, Momentum: 0.9}
}

// Model is a trained surrogate. Net is a linear+MSE network (the paper
// uses only linear surrogates).
type Model struct {
	// Net is the surrogate network; it implements attack.GradientSource.
	Net *nn.Network
}

// PredictPower returns the surrogate's power prediction in normalized
// (weight-unit) form, p̂(u) = Σ_j u_j Σ_i |ŵ_ij| — the differentiable
// model of Eq. (5)/(6) under the paper's normalized-crossbar convention.
func (m *Model) PredictPower(u []float64) float64 {
	return tensor.Dot(u, m.Net.W.ColAbsSums())
}

// Train fits a surrogate to the query set. The power term is active only
// when cfg.Lambda > 0 and qs.P is present.
func Train(qs *oracle.QuerySet, cfg Config, src *rng.Source) (*Model, error) {
	if qs == nil || qs.Len() == 0 {
		return nil, errors.New("surrogate: empty query set")
	}
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("surrogate: epochs %d must be positive", cfg.Epochs)
	}
	if !finite(cfg.LearningRate) || cfg.LearningRate <= 0 {
		return nil, fmt.Errorf("surrogate: learning rate %v must be positive and finite", cfg.LearningRate)
	}
	if math.IsNaN(cfg.Momentum) || cfg.Momentum < 0 || cfg.Momentum >= 1 {
		return nil, fmt.Errorf("surrogate: momentum %v out of [0,1)", cfg.Momentum)
	}
	if !finite(cfg.Lambda) || cfg.Lambda < 0 {
		return nil, fmt.Errorf("surrogate: power weight %v must be non-negative and finite", cfg.Lambda)
	}
	if cfg.Lambda > 0 && qs.P == nil {
		return nil, errors.New("surrogate: lambda > 0 but query set has no power data")
	}

	net, err := nn.NewNetwork(qs.Y.Cols(), qs.U.Cols(), nn.ActLinear, nn.LossMSE)
	if err != nil {
		return nil, err
	}
	net.InitXavier(src.Split("init"))
	fit(net, qs, cfg, src.Split("sgd"))
	return &Model{Net: net}, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// fit runs cfg.Epochs of mini-batch SGD with momentum on net's weights,
// drawing each epoch's sample order from sgd. cfg is already validated.
//
// The power targets are expected in the paper's normalized (weight-unit)
// convention — oracle.Collect delivers them that way — so the
// surrogate's feature Σ_j u_j ‖Ŵ_:,j‖₁ is directly comparable and Eq. (9)
// needs no calibration parameter.
func fit(net *nn.Network, qs *oracle.QuerySet, cfg Config, sgd *rng.Source) {
	usePower := cfg.Lambda > 0 && qs.P != nil
	q, n, m := qs.Len(), qs.U.Cols(), qs.Y.Cols()
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 32
	}
	velocity := tensor.New(m, n)
	grad := tensor.New(m, n)
	ws := newTrainWorkspace(batch, q, n, m, usePower)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := sgd.Perm(q)
		for start := 0; start < q; start += batch {
			end := start + batch
			if end > q {
				end = q
			}
			ws.step(net, qs, cfg, perm[start:end], ws.views(end-start), grad, usePower)
			scale := 1 / float64(end-start)
			tensor.SGDMomentumStep(net.W, velocity, grad, cfg.Momentum, -cfg.LearningRate*scale, false, 0)
		}
	}
}

// trainViews is one set of mini-batch workspaces: gathered query inputs u
// and oracle outputs y, pre-activations s and output-MSE deltas d.
type trainViews struct {
	rows       int
	u, y, s, d *tensor.Matrix
}

// trainWorkspace owns the reusable surrogate-training buffers. As in nn,
// an epoch sees at most two mini-batch sizes, so both view sets alias one
// allocation and the steady-state step allocates nothing. The power-term
// buffers (current column 1-norms, the per-sample power coefficients and
// their weighted input sum c) are only present when the power loss is
// active.
type trainWorkspace struct {
	full, rem trainViews
	colNorms  []float64 // ‖W_:,j‖₁, refreshed per mini-batch
	coeff     []float64 // 2λ·(p̂(u_b) − p_b), one per sample
	c         []float64 // Σ_b coeff_b·u_b
}

func newTrainWorkspace(batch, total, n, m int, usePower bool) *trainWorkspace {
	if batch > total {
		batch = total
	}
	full := trainViews{
		rows: batch,
		u:    tensor.New(batch, n),
		y:    tensor.New(batch, m),
		s:    tensor.New(batch, m),
		d:    tensor.New(batch, m),
	}
	ws := &trainWorkspace{full: full}
	if rem := total % batch; rem != 0 {
		ws.rem = trainViews{
			rows: rem,
			u:    full.u.RowSpan(0, rem),
			y:    full.y.RowSpan(0, rem),
			s:    full.s.RowSpan(0, rem),
			d:    full.d.RowSpan(0, rem),
		}
	}
	if usePower {
		ws.colNorms = make([]float64, n)
		ws.coeff = make([]float64, batch)
		ws.c = make([]float64, n)
	}
	return ws
}

func (w *trainWorkspace) views(rows int) *trainViews {
	if rows == w.full.rows {
		return &w.full
	}
	if rows == w.rem.rows {
		return &w.rem
	}
	panic(fmt.Sprintf("surrogate: no workspace for batch of %d rows", rows))
}

// step computes the summed mini-batch gradient of Eq. (9) into grad
// (overwritten). The forward pass runs as one matrix-matrix product for
// the whole mini-batch, and the output-MSE gradient Σ_b d_b·u_bᵀ is one
// batch contraction (GemmTA). The power term needs no second pass over
// the batch: W's signs are fixed for the mini-batch, so
//
//	Σ_b sign(w_ij)·coeff_b·u_b[j] = sign(w_ij)·c_j,  c = Σ_b coeff_b·u_b,
//
// with coeff_b = 2λ·(p̂(u_b) − p_b) and ∂p̂/∂w_ij = u_j·sign(w_ij). c is one
// vector-matrix product, and one sweep adds sign(w_ij)·c_j to every
// element. Per element that is the factored order: the output-MSE chain
// over the samples, then one power term. It reassociates the per-sample
// reference loop's sum, so weights differ from that loop by about an ulp;
// TestTrainMatchesPerSampleReference pins the factored order bit for bit
// and the per-sample loop within a tight tolerance.
//
//xbar:hotpath
func (w *trainWorkspace) step(net *nn.Network, qs *oracle.QuerySet, cfg Config, idxs []int, v *trainViews, grad *tensor.Matrix, usePower bool) {
	m := net.Outputs()
	for bi, idx := range idxs {
		v.u.CopyRow(bi, qs.U, idx)
		v.y.CopyRow(bi, qs.Y, idx)
	}
	tensor.GemmTB(v.s, v.u, net.W)
	fm := float64(m)
	for bi := range idxs {
		s, y, d := v.s.Row(bi), v.y.Row(bi), v.d.Row(bi)
		// Output MSE term: δ = 2(Wu - y)/M.
		for i := range s {
			d[i] = 2 * (s[i] - y[i]) / fm
		}
	}
	tensor.GemmTA(grad, v.d, v.u)
	if !usePower {
		return
	}
	net.W.ColAbsSumsInto(w.colNorms)
	coeff := w.coeff[:v.rows]
	for bi, idx := range idxs {
		// Power term: e = p̂(u) - p, p̂(u) = Σ_j u_j ‖W_:,j‖₁.
		e := tensor.Dot(v.u.Row(bi), w.colNorms) - qs.P[idx]
		coeff[bi] = cfg.Lambda * 2 * e
	}
	tensor.VecMatInto(w.c, coeff, v.u)
	for i := 0; i < m; i++ {
		wrow, grow := net.W.Row(i), grad.Row(i)
		for j, cj := range w.c {
			// sign(w_ij)·c_j without a data-dependent branch: a zero
			// weight (of either sign) adds nothing, as sign 0 would.
			if wj := wrow[j]; wj != 0 {
				grow[j] += math.Copysign(1, wj) * cj
			}
		}
	}
}

// AlgebraicExtract recovers the oracle's weights from raw-output queries
// by least squares: W = (U†Ŷ)ᵀ. With Q >= N independent queries on a
// noiseless linear oracle the recovery is exact (paper §IV); with fewer
// queries it returns the minimum-norm solution.
func AlgebraicExtract(qs *oracle.QuerySet) (*nn.Network, error) {
	if qs == nil || qs.Len() == 0 {
		return nil, errors.New("surrogate: empty query set")
	}
	uinv, err := linalg.PseudoInverse(qs.U)
	if err != nil {
		return nil, fmt.Errorf("surrogate: pseudoinverse: %w", err)
	}
	west := uinv.MatMul(qs.Y).T()
	net, err := nn.NewNetwork(west.Rows(), west.Cols(), nn.ActLinear, nn.LossMSE)
	if err != nil {
		return nil, err
	}
	net.W = west
	return net, nil
}

// Accuracy evaluates the surrogate's top-1 accuracy against true labels
// through the batched forward path (bit-identical to per-sample Predict).
func (m *Model) Accuracy(x *tensor.Matrix, labels []int) float64 {
	if x.Rows() == 0 {
		return 0
	}
	preds, err := m.Net.PredictBatch(x)
	if err != nil {
		// Shape mismatch between surrogate and evaluation set — mirror the
		// per-sample path, which would have panicked inside MatVec.
		panic(err)
	}
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(x.Rows())
}
