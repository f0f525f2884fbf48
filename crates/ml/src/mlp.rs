//! A multi-layer perceptron classifier trained with backpropagation.
//!
//! This is the paper family's model of choice (the Insieme framework used
//! artificial neural networks for its task-partitioning predictor). The
//! implementation is a plain, dependency-free MLP: tanh hidden layers,
//! softmax output, cross-entropy loss, mini-batch SGD with momentum and L2
//! regularization, fully deterministic for a fixed seed.
//!
//! ## Batch-major training
//!
//! The weights change only between mini-batches, so [`Mlp::fit`] trains
//! one batch at a time. A workspace allocated once per fit holds, per
//! layer, a row-major `batch × width` activation buffer and delta buffer,
//! gradient and momentum buffers, and two feature-major panels. Every
//! kernel's inner loop runs over contiguous memory:
//! - **Forward.** The batch goes through the layers `PANEL` samples at a
//!   time. The samples are packed feature-major (`X[k][s..s + PANEL]`;
//!   a short last panel is zero-padded), so `acc[s] += w[o][k]·X[k][s]`
//!   is one vector operation per `k`, two weight rows per pass. Each
//!   layer writes the next layer's panel, and its tanh or softmax
//!   outputs also go row-major into the activation buffer for the
//!   backward pass. A hidden layer's tanh runs branch-free over whole
//!   panel columns, padding lanes included (they hold finite values),
//!   so it vectorizes too. Single-row inference runs the same kernel one
//!   sample wide, where the row already is its panel, in one buffer.
//! - **Gradient.** A strip of `STRIP` elements of a gradient row stays in
//!   registers while the `PANEL` samples of a panel fold into it; the
//!   samples of a batch's tail fold in one at a time.
//! - **Delta.** The weight rows are the outer loop, so each row is
//!   loaded once per batch and added into every sample's delta.
//! - **Update.** Momentum SGD walks the weight, velocity and gradient
//!   slices together.
//!
//! The training loop has one body and two codegen tiers, chosen once per
//! fit by the CPU alone: portable, and on x86-64 CPUs with AVX2 the same
//! body compiled with AVX2 enabled (256-bit vectors, no FMA).
//!
//! ## Summation order
//!
//! Floating-point addition is not associative, so the layout must not
//! change which sums are formed. Every element keeps the order of the
//! plain per-sample algorithm, and the fitted weights are bit-identical
//! to it:
//! - a pre-activation is `Σ_k w[o][k]·x[k]` over `k` in order, folded
//!   from `-0.0` (what `Iterator::sum` does), then `+ b[o]`;
//! - a gradient element is `0.0 + d₀·a₀ + d₁·a₁ + …` over the batch's
//!   samples in chunk order;
//! - a propagated delta is `0.0 + Σ_o d[o]·w[o][k]` over `o` in order,
//!   then scaled by the tanh derivative `1 - a²`.
//!
//! No fused multiply-add or reassociation is used, and `tanh` and `exp`
//! are this crate's own fdlibm ports, not the host libm's: the panel and
//! the scalar `tanh` agree bit for bit, and every host fits the same
//! parameters. The golden-hash test locks them for a grid of fits.

use crate::activation::{exp, tanh, tanh_panel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Samples per feature-major panel of the training forward pass.
pub(crate) const PANEL: usize = 8;

/// Gradient elements held in registers while a panel's samples fold in.
const STRIP: usize = 8;

/// Hyper-parameters for [`Mlp`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Hidden layer widths (e.g. `[32, 16]`).
    pub hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// L2 weight decay.
    pub l2: f64,
    /// Mini-batch size (0 is treated as 1).
    pub batch_size: usize,
    /// PRNG seed (initialization + shuffling).
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden: vec![32, 16],
            epochs: 300,
            lr: 0.02,
            momentum: 0.9,
            l2: 1e-4,
            batch_size: 16,
            seed: 42,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Layer {
    /// Row-major `out × in` weights.
    w: Vec<f64>,
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
}

impl Layer {
    fn new(n_in: usize, n_out: usize, rng: &mut StdRng) -> Self {
        // Xavier/Glorot uniform initialization.
        let bound = (6.0 / (n_in + n_out) as f64).sqrt();
        let w = (0..n_in * n_out)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Self {
            w,
            b: vec![0.0; n_out],
            n_in,
            n_out,
        }
    }

    /// `out = W·x + b` for the `S` samples of a feature-major panel, into
    /// a feature-major panel: `x[k·S + j]` is input `k` of sample `j`,
    /// `out[o·S + j]` output `o` of it. Weight rows go two at a time.
    #[inline(always)]
    fn forward_panel<const S: usize>(&self, x: &[f64], out: &mut [f64]) {
        let (cols, _) = x[..self.n_in * S].as_chunks::<S>();
        let (outs, _) = out[..self.n_out * S].as_chunks_mut::<S>();
        let pairs = self.n_out - self.n_out % 2;
        for o in (0..pairs).step_by(2) {
            self.forward_outputs::<S, 2>(cols, o, &mut outs[o..o + 2]);
        }
        for o in pairs..self.n_out {
            self.forward_outputs::<S, 1>(cols, o, &mut outs[o..o + 1]);
        }
    }

    /// Outputs `o..o + R` of a panel's samples. Each sample of each output
    /// has its own accumulator, folded over `k` in order from `-0.0`.
    #[inline(always)]
    fn forward_outputs<const S: usize, const R: usize>(
        &self,
        cols: &[[f64; S]],
        o: usize,
        outs: &mut [[f64; S]],
    ) {
        let ws: [&[f64]; R] =
            std::array::from_fn(|r| &row_of(&self.w, self.n_in, o + r)[..cols.len()]);
        let mut acc = [[-0.0; S]; R];
        for (k, x) in cols.iter().enumerate() {
            for (acc, w) in acc.iter_mut().zip(&ws) {
                for (a, x) in acc.iter_mut().zip(x) {
                    *a += w[k] * x;
                }
            }
        }
        for ((out, acc), b) in outs.iter_mut().zip(acc).zip(&self.b[o..]) {
            for (z, a) in out.iter_mut().zip(acc) {
                *z = a + b;
            }
        }
    }

    /// Zero the gradients, then add `d[s][o]·a[s]` to gradient row `o`
    /// (and `d[s][o]` to its bias) for every sample `s < rows`, in sample
    /// order: `PANEL` samples per pass over the gradient, then the tail.
    #[inline(always)]
    fn accumulate(&self, d: &[f64], a: &[f64], rows: usize, grad: &mut Params) {
        grad.w.fill(0.0);
        grad.b.fill(0.0);
        let full = rows - rows % PANEL;
        for s in (0..full).step_by(PANEL) {
            self.fold::<PANEL>(d, a, s, grad);
        }
        for s in full..rows {
            self.fold::<1>(d, a, s, grad);
        }
    }

    /// Fold samples `s..s + S` into the gradient, `STRIP` elements of a
    /// row at a time, each element summed as `(((g + d₀·a₀) + d₁·a₁) + …)`.
    #[inline(always)]
    fn fold<const S: usize>(&self, d: &[f64], a: &[f64], s: usize, grad: &mut Params) {
        let (n_in, n_out) = (self.n_in, self.n_out);
        let xs: [&[f64]; S] = std::array::from_fn(|j| row_of(a, n_in, s + j));
        let x_strips = xs.map(|x| x.as_chunks::<STRIP>().0);
        for (o, gb) in grad.b.iter_mut().enumerate() {
            let ds: [f64; S] = std::array::from_fn(|j| d[(s + j) * n_out + o]);
            let g = row_of_mut(&mut grad.w, n_in, o);
            let (strips, tail) = g.as_chunks_mut::<STRIP>();
            for (c, strip) in strips.iter_mut().enumerate() {
                let mut v = *strip;
                for (d, x) in ds.iter().zip(&x_strips) {
                    for (v, x) in v.iter_mut().zip(&x[c]) {
                        *v += d * x;
                    }
                }
                *strip = v;
            }
            let done = n_in - tail.len();
            for (k, gk) in tail.iter_mut().enumerate() {
                let mut v = *gk;
                for (d, x) in ds.iter().zip(&xs) {
                    v += d * x[done + k];
                }
                *gk = v;
            }
            for d in ds {
                *gb += d;
            }
        }
    }

    /// `below[s] = (Wᵀ·d[s]) ⊙ (1 − a[s]²)`: the delta of the layer
    /// underneath, whose tanh outputs `a` are this layer's inputs. Weight
    /// row `o` is added into every sample's delta before row `o + 1`.
    #[inline(always)]
    fn propagate(&self, d: &[f64], a: &[f64], rows: usize, below: &mut [f64]) {
        let (n_in, n_out) = (self.n_in, self.n_out);
        let below = &mut below[..rows * n_in];
        below.fill(0.0);
        for o in 0..n_out {
            let w = row_of(&self.w, n_in, o);
            for s in 0..rows {
                let dso = d[s * n_out + o];
                for (nv, w) in row_of_mut(below, n_in, s).iter_mut().zip(w) {
                    *nv += dso * w;
                }
            }
        }
        for (nv, a) in below.iter_mut().zip(a) {
            *nv *= 1.0 - a * a;
        }
    }

    /// One SGD step with momentum and L2 decay, `v = μ·v − scale·(g + λ·w)`
    /// then `w += v`; the biases take no decay.
    #[inline(always)]
    fn update(&mut self, cfg: &MlpConfig, scale: f64, grad: &Params, vel: &mut Params) {
        for ((w, v), g) in self.w.iter_mut().zip(&mut vel.w).zip(&grad.w) {
            let reg = cfg.l2 * *w;
            *v = cfg.momentum * *v - scale * (g + reg);
            *w += *v;
        }
        for ((b, v), g) in self.b.iter_mut().zip(&mut vel.b).zip(&grad.b) {
            *v = cfg.momentum * *v - scale * g;
            *b += *v;
        }
    }
}

/// Weight- and bias-shaped buffers of one layer: its batch gradient or
/// its momentum velocities.
struct Params {
    w: Vec<f64>,
    b: Vec<f64>,
}

impl Params {
    fn zeros(layer: &Layer) -> Self {
        Self {
            w: vec![0.0; layer.w.len()],
            b: vec![0.0; layer.b.len()],
        }
    }
}

/// Row `s` of a row-major `rows × width` buffer.
fn row_of(buf: &[f64], width: usize, s: usize) -> &[f64] {
    &buf[s * width..(s + 1) * width]
}

fn row_of_mut(buf: &mut [f64], width: usize, s: usize) -> &mut [f64] {
    &mut buf[s * width..(s + 1) * width]
}

/// Run `rows` samples, stored row-major in `acts[0]`, through every layer:
/// `acts[l + 1]` receives layer `l`'s tanh (hidden) or softmax (output)
/// activations, row-major. The samples go `PANEL` at a time, packed
/// feature-major into one half of `panels`; each layer reads its panel
/// and writes the next into the other half. The last panel is
/// zero-padded, and its padding lanes are computed but never stored.
#[inline(always)]
fn forward_rows(layers: &[Layer], acts: &mut [Vec<f64>], rows: usize, panels: &mut [f64]) {
    let (mut x, mut z) = panels.split_at_mut(panels.len() / 2);
    let (inputs, outputs) = acts.split_at_mut(1);
    let dim = layers.first().map_or(0, |l| l.n_in);
    for s in (0..rows).step_by(PANEL) {
        let live = PANEL.min(rows - s);
        if live < PANEL {
            x.fill(0.0);
        }
        for (j, row) in (s..s + live)
            .map(|r| row_of(&inputs[0], dim, r))
            .enumerate()
        {
            for (p, &v) in x[j..].iter_mut().step_by(PANEL).zip(row) {
                *p = v;
            }
        }
        for (li, (layer, out)) in layers.iter().zip(outputs.iter_mut()).enumerate() {
            let n_out = layer.n_out;
            layer.forward_panel::<PANEL>(x, z);
            let (cols, _) = z[..n_out * PANEL].as_chunks_mut::<PANEL>();
            let rows_out = &mut out[s * n_out..(s + live) * n_out];
            let hidden = li + 1 < layers.len();
            for (o, col) in cols.iter_mut().enumerate() {
                if hidden {
                    tanh_panel(col);
                }
                for (j, v) in col[..live].iter().enumerate() {
                    rows_out[j * n_out + o] = *v;
                }
            }
            if !hidden {
                for j in 0..live {
                    softmax(row_of_mut(rows_out, n_out, j));
                }
            }
            std::mem::swap(&mut x, &mut z);
        }
    }
}

/// The codegen tier of the training loop: one body, compiled for the
/// baseline target or with AVX2 enabled. Nothing but the CPU picks it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Tier {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Tier {
    /// The widest tier this CPU supports.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return Self::Avx2;
        }
        Self::Portable
    }
}

/// `train` compiled with AVX2 enabled: the kernels inline into it, so
/// their vector loops use 256-bit registers (no FMA: every product is
/// rounded before its sum, as on the portable tier).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn train_avx2(config: MlpConfig, x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Mlp {
    train(config, x, y, n_classes)
}

/// The training loop of [`Mlp::fit`], on checked inputs.
#[inline(always)]
fn train(config: MlpConfig, x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Mlp {
    let dim = x[0].len();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Build layers: dim -> hidden... -> n_classes.
    let mut sizes = vec![dim];
    sizes.extend(&config.hidden);
    sizes.push(n_classes);
    let mut layers: Vec<Layer> = sizes
        .windows(2)
        .map(|w| Layer::new(w[0], w[1], &mut rng))
        .collect();
    let out = layers.len() - 1;

    let n = x.len();
    let mut order: Vec<usize> = (0..n).collect();
    let batch = config.batch_size.max(1);

    // Workspace: `rows × width` activations (the inputs, then each
    // layer's outputs), per-layer deltas, batch gradients, momentum
    // velocities, and the forward pass's feature-major panel.
    let rows_max = batch.min(n);
    let mut acts: Vec<Vec<f64>> = sizes.iter().map(|&w| vec![0.0; rows_max * w]).collect();
    let mut deltas: Vec<Vec<f64>> = sizes[1..]
        .iter()
        .map(|&w| vec![0.0; rows_max * w])
        .collect();
    let mut grads: Vec<Params> = layers.iter().map(Params::zeros).collect();
    let mut vels: Vec<Params> = layers.iter().map(Params::zeros).collect();
    let mut panels = vec![0.0; sizes.iter().max().map_or(0, |w| 2 * w * PANEL)];

    for _epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(batch) {
            let rows = chunk.len();
            for (s, &i) in chunk.iter().enumerate() {
                row_of_mut(&mut acts[0], dim, s).copy_from_slice(&x[i]);
            }
            forward_rows(&layers, &mut acts, rows, &mut panels);

            // Backward pass. The output delta is softmax − one-hot.
            let d_out = &mut deltas[out][..rows * n_classes];
            d_out.copy_from_slice(&acts[out + 1][..rows * n_classes]);
            for (s, &i) in chunk.iter().enumerate() {
                d_out[s * n_classes + y[i]] -= 1.0;
            }
            for (li, layer) in layers.iter().enumerate().rev() {
                layer.accumulate(&deltas[li], &acts[li], rows, &mut grads[li]);
                if li > 0 {
                    let (below, here) = deltas.split_at_mut(li);
                    layer.propagate(&here[0], &acts[li], rows, &mut below[li - 1]);
                }
            }

            let scale = config.lr / rows as f64;
            for ((layer, grad), vel) in layers.iter_mut().zip(&grads).zip(&mut vels) {
                layer.update(&config, scale, grad, vel);
            }
        }
    }
    Mlp {
        config,
        layers,
        n_classes,
        dim,
    }
}

/// The trained model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    pub config: MlpConfig,
    layers: Vec<Layer>,
    n_classes: usize,
    dim: usize,
}

fn softmax(z: &mut [f64]) {
    let m = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in z.iter_mut() {
        *v = exp(*v - m);
        sum += *v;
    }
    for v in z.iter_mut() {
        *v /= sum;
    }
}

impl Mlp {
    /// Train a classifier on `x` / dense labels `y` with `n_classes`
    /// classes.
    ///
    /// # Panics
    /// Panics on empty data, inconsistent dimensions, or labels outside
    /// `0..n_classes`.
    pub fn fit(config: MlpConfig, x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Self {
        assert!(!x.is_empty(), "cannot train on an empty dataset");
        assert_eq!(x.len(), y.len());
        assert!(n_classes >= 1);
        assert!(y.iter().all(|&l| l < n_classes), "label out of range");
        let dim = x[0].len();
        assert!(
            x.iter().all(|r| r.len() == dim),
            "inconsistent feature dimensions"
        );
        Self::fit_on(Tier::detect(), config, x, y, n_classes)
    }

    /// [`Mlp::fit`] on a chosen codegen tier; both give bit-identical
    /// parameters.
    fn fit_on(
        tier: Tier,
        config: MlpConfig,
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
    ) -> Self {
        match tier {
            Tier::Portable => train(config, x, y, n_classes),
            // SAFETY: `Tier::Avx2` is only constructed after
            // `is_x86_feature_detected!("avx2")` returned true.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { train_avx2(config, x, y, n_classes) },
        }
    }

    /// Class probabilities for one feature row.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        self.predict_proba_with(x, |_| {})
    }

    /// Class probabilities for one feature row that `prep` transforms in
    /// place first (a pipeline's scaler). One buffer holds two halves:
    /// each layer runs the forward kernel one sample wide from one half
    /// into the other.
    pub(crate) fn predict_proba_with(&self, x: &[f64], prep: impl FnOnce(&mut [f64])) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        let widths = self.layers.iter().map(|l| l.n_out);
        let width = widths.fold(self.dim, usize::max);
        let mut buf = vec![0.0; 2 * width];
        buf[..self.dim].copy_from_slice(x);
        prep(&mut buf[..self.dim]);
        let (mut a, mut b) = buf.split_at_mut(width);
        for (li, layer) in self.layers.iter().enumerate() {
            let z = &mut b[..layer.n_out];
            layer.forward_panel::<1>(a, z);
            if li + 1 < self.layers.len() {
                z.iter_mut().for_each(|v| *v = tanh(*v));
            } else {
                softmax(z);
            }
            std::mem::swap(&mut a, &mut b);
        }
        // An odd number of layers leaves the output in the second half.
        let start = width * (self.layers.len() % 2);
        buf.copy_within(start..start + self.n_classes, 0);
        buf.truncate(self.n_classes);
        buf
    }

    /// Most likely class for one feature row.
    pub fn predict(&self, x: &[f64]) -> usize {
        crate::argmax_by(&self.predict_proba(x), f64::total_cmp)
    }

    /// Number of classes the model was trained with.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..25 {
            for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
                x.push(vec![a, b]);
                y.push(usize::from((a != b) as u8 == 1));
            }
        }
        (x, y)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let cfg = MlpConfig {
            hidden: vec![8],
            epochs: 400,
            ..Default::default()
        };
        let m = Mlp::fit(cfg, &x, &y, 2);
        for (xi, yi) in x.iter().zip(&y) {
            assert_eq!(m.predict(xi), *yi, "xor({xi:?})");
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (x, y) = xor_data();
        let m = Mlp::fit(
            MlpConfig {
                epochs: 10,
                ..Default::default()
            },
            &x,
            &y,
            2,
        );
        let p = m.predict_proba(&[0.5, 0.5]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (x, y) = xor_data();
        let cfg = MlpConfig {
            epochs: 50,
            ..Default::default()
        };
        let a = Mlp::fit(cfg.clone(), &x, &y, 2);
        let b = Mlp::fit(cfg, &x, &y, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let (x, y) = xor_data();
        let a = Mlp::fit(
            MlpConfig {
                epochs: 20,
                seed: 1,
                ..Default::default()
            },
            &x,
            &y,
            2,
        );
        let b = Mlp::fit(
            MlpConfig {
                epochs: 20,
                seed: 2,
                ..Default::default()
            },
            &x,
            &y,
            2,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn multiclass_blobs() {
        // Three well-separated clusters.
        let mut x = Vec::new();
        let mut y = Vec::new();
        let centers = [(-4.0, 0.0), (4.0, 0.0), (0.0, 5.0)];
        let mut rng = StdRng::seed_from_u64(7);
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..40 {
                x.push(vec![
                    cx + rng.gen_range(-1.0..1.0),
                    cy + rng.gen_range(-1.0..1.0),
                ]);
                y.push(c);
            }
        }
        let m = Mlp::fit(
            MlpConfig {
                hidden: vec![16],
                epochs: 200,
                ..Default::default()
            },
            &x,
            &y,
            3,
        );
        let correct = x
            .iter()
            .zip(&y)
            .filter(|(xi, &yi)| m.predict(xi) == yi)
            .count();
        assert!(
            correct as f64 / x.len() as f64 > 0.95,
            "accuracy {correct}/{}",
            x.len()
        );
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let (x, y) = xor_data();
        let m = Mlp::fit(
            MlpConfig {
                epochs: 100,
                ..Default::default()
            },
            &x,
            &y,
            2,
        );
        let js = serde_json::to_string(&m).unwrap();
        let back: Mlp = serde_json::from_str(&js).unwrap();
        for xi in &x {
            assert_eq!(m.predict(xi), back.predict(xi));
        }
    }

    /// FNV-1a over the bit patterns of every weight and bias, layer by
    /// layer.
    fn param_hash(m: &Mlp) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for l in &m.layers {
            for v in l.w.iter().chain(&l.b) {
                for byte in v.to_bits().to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    /// 29 seeded rows of 27 features: neither is a multiple of the
    /// 8-sample panel, and 29 is a multiple of no tested batch size.
    fn golden_data(n_classes: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(0x601d);
        let x = (0..29)
            .map(|_| (0..27).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        let y = (0..29).map(|i| (i * 7) % n_classes).collect();
        (x, y)
    }

    fn golden_fit(hidden: &[usize], batch_size: usize, n_classes: usize) -> Mlp {
        let (x, y) = golden_data(n_classes);
        let cfg = MlpConfig {
            hidden: hidden.to_vec(),
            epochs: 4,
            batch_size,
            seed: 1234,
            ..Default::default()
        };
        Mlp::fit(cfg, &x, &y, n_classes)
    }

    /// Parameter hashes recorded from the per-sample reference
    /// implementation of `fit`. Any change to the summation order of a
    /// forward, gradient or delta sum changes them.
    const GOLDEN: [(&[usize], usize, usize, u64); 30] = [
        (&[], 0, 1, 0xe8def573200d4ac7),
        (&[], 0, 11, 0x6f883b82a14605a2),
        (&[], 1, 1, 0xe8def573200d4ac7),
        (&[], 1, 11, 0x6f883b82a14605a2),
        (&[], 3, 1, 0xf3eb4dc4cc5b19af),
        (&[], 3, 11, 0x1e192e7004709622),
        (&[], 16, 1, 0x09d979d8787ddefb),
        (&[], 16, 11, 0xa75d8178cb5c2aff),
        (&[], 34, 1, 0x7d0f0403cf280e29),
        (&[], 34, 11, 0xbe3a34fb1265e6ab),
        (&[8], 0, 1, 0x5bc8699e70e82114),
        (&[8], 0, 11, 0xb914634f2013db23),
        (&[8], 1, 1, 0x5bc8699e70e82114),
        (&[8], 1, 11, 0xb914634f2013db23),
        (&[8], 3, 1, 0xbc7a9a45e320fc48),
        (&[8], 3, 11, 0x71d8289d0fe5cbda),
        (&[8], 16, 1, 0x943ce99068f0c901),
        (&[8], 16, 11, 0x15ad31c7cc0438d0),
        (&[8], 34, 1, 0xffef13e3dc37219a),
        (&[8], 34, 11, 0x8b5e306375516016),
        (&[32, 16], 0, 1, 0xce664386c9dd86fe),
        (&[32, 16], 0, 11, 0xd79b4453c1274402),
        (&[32, 16], 1, 1, 0xce664386c9dd86fe),
        (&[32, 16], 1, 11, 0xd79b4453c1274402),
        (&[32, 16], 3, 1, 0x384acdb34d006da5),
        (&[32, 16], 3, 11, 0xa5c25c9aea3ada4a),
        (&[32, 16], 16, 1, 0xe1d30a6b01736db3),
        (&[32, 16], 16, 11, 0x1a120bd9ed58774e),
        (&[32, 16], 34, 1, 0xf9b828dc56d56551),
        (&[32, 16], 34, 11, 0xbf6feab77c2b9a2a),
    ];

    #[test]
    fn fit_parameters_match_the_golden_hashes() {
        let mut got = Vec::new();
        for hidden in [&[][..], &[8], &[32, 16]] {
            // 34 = n + 5: one chunk shorter than the batch size.
            for batch_size in [0, 1, 3, 16, 34] {
                for n_classes in [1, 11] {
                    let h = param_hash(&golden_fit(hidden, batch_size, n_classes));
                    got.push((hidden, batch_size, n_classes, h));
                }
            }
        }
        assert_eq!(got.len(), GOLDEN.len());
        for (g, want) in got.iter().zip(&GOLDEN) {
            assert_eq!(g, want, "hidden {:?}, batch {}, {} classes", g.0, g.1, g.2);
        }
    }

    /// Both codegen tiers this CPU runs: the portable one and the widest.
    fn tiers() -> [Tier; 2] {
        [Tier::Portable, Tier::detect()]
    }

    fn param_bits(m: &Mlp) -> Vec<Vec<u64>> {
        m.layers
            .iter()
            .map(|l| l.w.iter().chain(&l.b).map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn both_tiers_fit_the_golden_grid_identically() {
        for (hidden, batch_size, n_classes, _) in GOLDEN {
            let (x, y) = golden_data(n_classes);
            let cfg = MlpConfig {
                hidden: hidden.to_vec(),
                epochs: 4,
                batch_size,
                seed: 1234,
                ..Default::default()
            };
            let [portable, native] =
                tiers().map(|t| param_bits(&Mlp::fit_on(t, cfg.clone(), &x, &y, n_classes)));
            assert_eq!(portable, native, "hidden {hidden:?}, batch {batch_size}");
        }
    }

    /// `fit` as the module doc's summation rules state it: one sample at a
    /// time, row-major, no panels, strips or tiers.
    fn reference_fit(config: MlpConfig, x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Mlp {
        let dim = x[0].len();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut sizes = vec![dim];
        sizes.extend(&config.hidden);
        sizes.push(n_classes);
        let mut layers: Vec<Layer> = sizes
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], &mut rng))
            .collect();
        let zeros = |ls: &[Layer]| -> Vec<(Vec<f64>, Vec<f64>)> {
            ls.iter()
                .map(|l| (vec![0.0; l.w.len()], vec![0.0; l.b.len()]))
                .collect()
        };
        let mut vel = zeros(&layers);
        let mut order: Vec<usize> = (0..x.len()).collect();
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(config.batch_size.max(1)) {
                let mut grad = zeros(&layers);
                for &i in chunk {
                    let mut acts = vec![x[i].clone()];
                    for (li, l) in layers.iter().enumerate() {
                        let a = &acts[li];
                        let mut z: Vec<f64> = (0..l.n_out)
                            .map(|o| {
                                let w = &l.w[o * l.n_in..(o + 1) * l.n_in];
                                w.iter().zip(a).map(|(w, x)| w * x).sum::<f64>() + l.b[o]
                            })
                            .collect();
                        if li + 1 < layers.len() {
                            z.iter_mut().for_each(|v| *v = tanh(*v));
                        } else {
                            softmax(&mut z);
                        }
                        acts.push(z);
                    }
                    let mut d = acts[layers.len()].clone();
                    d[y[i]] -= 1.0;
                    for (li, l) in layers.iter().enumerate().rev() {
                        let (gw, gb) = &mut grad[li];
                        for o in 0..l.n_out {
                            for k in 0..l.n_in {
                                gw[o * l.n_in + k] += d[o] * acts[li][k];
                            }
                            gb[o] += d[o];
                        }
                        d = (0..l.n_in)
                            .map(|k| {
                                let mut sum = 0.0;
                                for (o, d) in d.iter().enumerate() {
                                    sum += d * l.w[o * l.n_in + k];
                                }
                                sum * (1.0 - acts[li][k] * acts[li][k])
                            })
                            .collect();
                    }
                }
                let scale = config.lr / chunk.len() as f64;
                for (l, ((gw, gb), (vw, vb))) in layers.iter_mut().zip(grad.iter().zip(&mut vel)) {
                    for j in 0..l.w.len() {
                        let reg = config.l2 * l.w[j];
                        vw[j] = config.momentum * vw[j] - scale * (gw[j] + reg);
                        l.w[j] += vw[j];
                    }
                    for j in 0..l.b.len() {
                        vb[j] = config.momentum * vb[j] - scale * gb[j];
                        l.b[j] += vb[j];
                    }
                }
            }
        }
        Mlp {
            config,
            layers,
            n_classes,
            dim,
        }
    }

    #[test]
    fn fit_matches_the_per_sample_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for case in 0..240 {
            let dim = rng.gen_range(1..41);
            let width = |rng: &mut StdRng| rng.gen_range(1..20);
            let hidden = match case % 3 {
                0 => vec![],
                1 => vec![width(&mut rng)],
                _ => vec![width(&mut rng), width(&mut rng)],
            };
            let n = rng.gen_range(1..51);
            let n_classes = rng.gen_range(1..13);
            let cfg = MlpConfig {
                hidden,
                epochs: rng.gen_range(1..4),
                batch_size: rng.gen_range(0..41),
                seed: rng.gen_range(0..u64::MAX),
                ..Default::default()
            };
            let x: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect())
                .collect();
            let y: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n_classes)).collect();
            let want = param_bits(&reference_fit(cfg.clone(), &x, &y, n_classes));
            for tier in tiers() {
                let got = param_bits(&Mlp::fit_on(tier, cfg.clone(), &x, &y, n_classes));
                assert!(
                    got == want,
                    "case {case} ({tier:?}): {dim} inputs, hidden {:?}, batch {}, \
                     {n} rows, {n_classes} classes, {} epochs",
                    cfg.hidden,
                    cfg.batch_size,
                    cfg.epochs
                );
            }
        }
    }

    #[test]
    fn batched_forward_matches_single_row_inference() {
        let mut rng = StdRng::seed_from_u64(0xf0d);
        let (dim, n_classes) = (11, 5);
        let x: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        let y: Vec<usize> = (0..40).map(|i| i % n_classes).collect();
        for hidden in [vec![], vec![13], vec![13, 6]] {
            let m = Mlp::fit(
                MlpConfig {
                    hidden,
                    epochs: 3,
                    ..Default::default()
                },
                &x,
                &y,
                n_classes,
            );
            // 21 rows: two full panels and a zero-padded one of 5.
            let rows = 21;
            let mut sizes = vec![dim];
            sizes.extend(m.layers.iter().map(|l| l.n_out));
            let mut acts: Vec<Vec<f64>> = sizes.iter().map(|&w| vec![0.0; rows * w]).collect();
            acts[0] = x[..rows].concat();
            let mut panels = vec![0.0; 2 * PANEL * sizes.iter().max().unwrap_or(&0)];
            forward_rows(&m.layers, &mut acts, rows, &mut panels);
            for (s, xi) in x[..rows].iter().enumerate() {
                let batched = row_of(&acts[m.layers.len()], n_classes, s);
                let single = m.predict_proba(xi);
                let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(batched), bits(&single), "row {s}");
            }
        }
    }

    #[test]
    fn short_batches_and_tails_train_deterministically() {
        // Batch sizes below the 8-sample panel, and 29 rows leave a
        // short final chunk for each of them.
        let (x, y) = golden_data(3);
        for batch_size in [1, 2, 3, 5, 7] {
            let cfg = MlpConfig {
                hidden: vec![6],
                epochs: 30,
                batch_size,
                ..Default::default()
            };
            let a = Mlp::fit(cfg.clone(), &x, &y, 3);
            let b = Mlp::fit(cfg, &x, &y, 3);
            assert_eq!(a, b, "batch {batch_size}");
            for xi in &x {
                assert!(a.predict(xi) < 3);
                let p = a.predict_proba(xi);
                assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn zero_batch_size_trains_like_batch_size_one() {
        let (x, y) = xor_data();
        let fit = |batch_size| {
            Mlp::fit(
                MlpConfig {
                    epochs: 20,
                    batch_size,
                    ..Default::default()
                },
                &x,
                &y,
                2,
            )
        };
        let zero = fit(0);
        assert_eq!(zero, fit(0));
        assert_eq!(zero.layers, fit(1).layers);
        assert!(zero.predict(&[1.0, 0.0]) < 2);
    }

    #[test]
    fn no_hidden_layer_is_softmax_regression() {
        // Three clusters that a linear model separates.
        let (x, y): (Vec<_>, Vec<_>) = (0..60)
            .map(|i| {
                let c = i % 3;
                let jitter = f64::from(i as u32 % 7) * 0.05;
                (vec![c as f64 * 4.0 + jitter, -(c as f64) + jitter], c)
            })
            .unzip();
        let cfg = MlpConfig {
            hidden: vec![],
            epochs: 200,
            batch_size: 7,
            ..Default::default()
        };
        let m = Mlp::fit(cfg.clone(), &x, &y, 3);
        assert_eq!(m.layers.len(), 1);
        assert_eq!(m, Mlp::fit(cfg, &x, &y, 3));
        let correct = x
            .iter()
            .zip(&y)
            .filter(|(xi, &yi)| m.predict(xi) == yi)
            .count();
        assert!(correct >= 57, "accuracy {correct}/60");
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        Mlp::fit(MlpConfig::default(), &[vec![0.0]], &[5], 2);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_bad_predict_dim() {
        let (x, y) = xor_data();
        let m = Mlp::fit(
            MlpConfig {
                epochs: 1,
                ..Default::default()
            },
            &x,
            &y,
            2,
        );
        m.predict(&[1.0, 2.0, 3.0]);
    }
}
