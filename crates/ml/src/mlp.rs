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
//! one batch at a time as matrices. A workspace allocated once per fit
//! holds, per layer, a row-major `batch × width` activation buffer and
//! delta buffer, plus gradient buffers that are zeroed in place. The
//! forward pass computes [`BLOCK`] samples per weight row at once, each
//! in its own accumulator; the backward pass walks layer by layer over
//! the whole batch and folds [`BLOCK`] samples into each pass over a
//! gradient row.
//!
//! ## Summation order
//!
//! Floating-point addition is not associative, so the blocking must not
//! change which sums are formed. Every element keeps the order of the
//! plain per-sample algorithm, and the fitted weights are bit-identical
//! to it:
//! - a pre-activation is `Σ_k w[o][k]·x[k]` over `k` in order, folded
//!   from `-0.0` (what `Iterator::sum` does), then `+ b[o]`;
//! - a gradient element is `0.0 + d₀·a₀ + d₁·a₁ + …` over the batch's
//!   samples in chunk order, e.g. `(((g + d0·a0) + d1·a1) + d2·a2) + d3·a3`
//!   for one block;
//! - a propagated delta is `0.0 + Σ_o d[o]·w[o][k]` over `o` in order,
//!   then scaled by the tanh derivative `1 - a²`.
//!
//! No fused multiply-add, reassociation or approximate `tanh`/`exp` is
//! used; the golden-hash test locks the parameters of a grid of fits.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Samples processed together per pass over a weight or gradient row.
const BLOCK: usize = 4;

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

    /// `out[s] = W·input[s] + b` for `rows` row-major samples.
    fn forward(&self, input: &[f64], out: &mut [f64], rows: usize) {
        let (full, tail) = blocks(rows);
        for s in full {
            self.forward_block::<BLOCK>(input, out, s);
        }
        for s in tail {
            self.forward_block::<1>(input, out, s);
        }
    }

    fn forward_block<const S: usize>(&self, input: &[f64], out: &mut [f64], s: usize) {
        let xs = std::array::from_fn(|j| row_of(input, self.n_in, s + j));
        for o in 0..self.n_out {
            let z: [f64; S] = dots(row_of(&self.w, self.n_in, o), xs);
            for (j, zj) in z.into_iter().enumerate() {
                out[(s + j) * self.n_out + o] = zj + self.b[o];
            }
        }
    }

    /// Add `d[s][o]·a[s]` to gradient row `o` (and `d[s][o]` to its bias)
    /// for every sample `s < rows`, in sample order.
    fn accumulate(&self, d: &[f64], a: &[f64], rows: usize, gw: &mut [f64], gb: &mut [f64]) {
        let (full, tail) = blocks(rows);
        for s in full {
            self.accumulate_block::<BLOCK>(d, a, s, gw, gb);
        }
        for s in tail {
            self.accumulate_block::<1>(d, a, s, gw, gb);
        }
    }

    fn accumulate_block<const S: usize>(
        &self,
        d: &[f64],
        a: &[f64],
        s: usize,
        gw: &mut [f64],
        gb: &mut [f64],
    ) {
        let (n_in, n_out) = (self.n_in, self.n_out);
        let xs = std::array::from_fn(|j| row_of(a, n_in, s + j));
        for o in 0..n_out {
            let ds: [f64; S] = std::array::from_fn(|j| d[(s + j) * n_out + o]);
            fold_rows(&mut gw[o * n_in..(o + 1) * n_in], &mut gb[o], ds, xs);
        }
    }

    /// `below[s] = (Wᵀ·d[s]) ⊙ (1 − a[s]²)`: the delta of the layer
    /// underneath, whose tanh outputs `a` are this layer's inputs.
    fn propagate(&self, d: &[f64], a: &[f64], rows: usize, below: &mut [f64]) {
        let (n_in, n_out) = (self.n_in, self.n_out);
        for s in 0..rows {
            let next = &mut below[s * n_in..(s + 1) * n_in];
            next.fill(0.0);
            for o in 0..n_out {
                let dso = d[s * n_out + o];
                for (nv, w) in next.iter_mut().zip(row_of(&self.w, self.n_in, o)) {
                    *nv += dso * w;
                }
            }
            for (nv, a) in next.iter_mut().zip(row_of(a, n_in, s)) {
                *nv *= 1.0 - a * a;
            }
        }
    }
}

/// First samples of the full [`BLOCK`]-sample blocks of a `rows`-sample
/// batch, then the samples of its shorter tail, one by one.
fn blocks(rows: usize) -> (impl Iterator<Item = usize>, Range<usize>) {
    let full = rows - rows % BLOCK;
    ((0..full).step_by(BLOCK), full..rows)
}

/// Row `s` of a row-major `rows × width` buffer.
fn row_of(buf: &[f64], width: usize, s: usize) -> &[f64] {
    &buf[s * width..(s + 1) * width]
}

/// `S` dot products of one weight row, each summed over `k` in order from
/// `-0.0` (bit-identical to `Iterator::sum`) in its own accumulator.
fn dots<const S: usize>(row: &[f64], xs: [&[f64]; S]) -> [f64; S] {
    let xs = xs.map(|x| &x[..row.len()]);
    let mut acc = [-0.0; S];
    for (k, w) in row.iter().enumerate() {
        for (a, x) in acc.iter_mut().zip(&xs) {
            *a += w * x[k];
        }
    }
    acc
}

/// Fold `S` samples into one gradient row and its bias, sample by sample:
/// `g = (((g + d0·a0) + d1·a1) + …)`.
fn fold_rows<const S: usize>(g: &mut [f64], gb: &mut f64, ds: [f64; S], xs: [&[f64]; S]) {
    let xs = xs.map(|x| &x[..g.len()]);
    for (k, gk) in g.iter_mut().enumerate() {
        let mut v = *gk;
        for (d, x) in ds.iter().zip(&xs) {
            v += d * x[k];
        }
        *gk = v;
    }
    for d in ds {
        *gb += d;
    }
}

/// Run `rows` samples, stored row-major in `acts[0]`, through every layer:
/// `acts[l + 1]` receives layer `l`'s tanh (hidden) or softmax (output)
/// activations.
fn forward_rows(layers: &[Layer], acts: &mut [Vec<f64>], rows: usize) {
    for (li, layer) in layers.iter().enumerate() {
        let (done, rest) = acts.split_at_mut(li + 1);
        let out = &mut rest[0][..rows * layer.n_out];
        layer.forward(&done[li], out, rows);
        if li + 1 < layers.len() {
            for v in out.iter_mut() {
                *v = v.tanh();
            }
        } else {
            for s in 0..rows {
                softmax(&mut out[s * layer.n_out..(s + 1) * layer.n_out]);
            }
        }
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
        *v = (*v - m).exp();
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

        // Momentum buffers.
        let mut vel_w: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut vel_b: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();

        let n = x.len();
        let mut order: Vec<usize> = (0..n).collect();
        let batch = config.batch_size.max(1);

        // Workspace: `rows × width` activations (the inputs, then each
        // layer's outputs), per-layer deltas, and the batch gradients.
        let rows_max = batch.min(n);
        let mut acts: Vec<Vec<f64>> = sizes.iter().map(|&w| vec![0.0; rows_max * w]).collect();
        let mut deltas: Vec<Vec<f64>> = sizes[1..]
            .iter()
            .map(|&w| vec![0.0; rows_max * w])
            .collect();
        let mut grad_w: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut grad_b: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();

        for _epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(batch) {
                let rows = chunk.len();
                for (s, &i) in chunk.iter().enumerate() {
                    acts[0][s * dim..(s + 1) * dim].copy_from_slice(&x[i]);
                }
                forward_rows(&layers, &mut acts, rows);

                // Backward pass. The output delta is softmax − one-hot.
                let d_out = &mut deltas[out][..rows * n_classes];
                d_out.copy_from_slice(&acts[out + 1][..rows * n_classes]);
                for (s, &i) in chunk.iter().enumerate() {
                    d_out[s * n_classes + y[i]] -= 1.0;
                }
                for li in (0..layers.len()).rev() {
                    let layer = &layers[li];
                    grad_w[li].fill(0.0);
                    grad_b[li].fill(0.0);
                    layer.accumulate(
                        &deltas[li],
                        &acts[li],
                        rows,
                        &mut grad_w[li],
                        &mut grad_b[li],
                    );
                    if li > 0 {
                        let (below, here) = deltas.split_at_mut(li);
                        layer.propagate(&here[0], &acts[li], rows, &mut below[li - 1]);
                    }
                }

                // SGD with momentum + L2.
                let scale = config.lr / rows as f64;
                for (li, layer) in layers.iter_mut().enumerate() {
                    for (j, g) in grad_w[li].iter().enumerate() {
                        let reg = config.l2 * layer.w[j];
                        vel_w[li][j] = config.momentum * vel_w[li][j] - scale * (g + reg);
                        layer.w[j] += vel_w[li][j];
                    }
                    for (j, g) in grad_b[li].iter().enumerate() {
                        vel_b[li][j] = config.momentum * vel_b[li][j] - scale * g;
                        layer.b[j] += vel_b[li][j];
                    }
                }
            }
        }
        Self {
            config,
            layers,
            n_classes,
            dim,
        }
    }

    /// Class probabilities for one feature row.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        let mut acts = vec![x.to_vec()];
        acts.extend(self.layers.iter().map(|l| vec![0.0; l.n_out]));
        forward_rows(&self.layers, &mut acts, 1);
        acts.pop().unwrap_or_default()
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
    /// 4-sample blocking, and 29 is a multiple of no tested batch size.
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
        (&[], 0, 11, 0x618933af1494ed9a),
        (&[], 1, 1, 0xe8def573200d4ac7),
        (&[], 1, 11, 0x618933af1494ed9a),
        (&[], 3, 1, 0xf3eb4dc4cc5b19af),
        (&[], 3, 11, 0xb599c330f49124b2),
        (&[], 16, 1, 0x09d979d8787ddefb),
        (&[], 16, 11, 0x9bddc0c780ce2b09),
        (&[], 34, 1, 0x7d0f0403cf280e29),
        (&[], 34, 11, 0x2ea227e1c26689b5),
        (&[8], 0, 1, 0x5bc8699e70e82114),
        (&[8], 0, 11, 0xac59f69580a4830c),
        (&[8], 1, 1, 0x5bc8699e70e82114),
        (&[8], 1, 11, 0xac59f69580a4830c),
        (&[8], 3, 1, 0xbc7a9a45e320fc48),
        (&[8], 3, 11, 0xf42d6eceefc766b8),
        (&[8], 16, 1, 0x943ce99068f0c901),
        (&[8], 16, 11, 0x28c29230d8171783),
        (&[8], 34, 1, 0xffef13e3dc37219a),
        (&[8], 34, 11, 0x67401d89ad8c00f2),
        (&[32, 16], 0, 1, 0xce664386c9dd86fe),
        (&[32, 16], 0, 11, 0x4f51d0bb2b2e37aa),
        (&[32, 16], 1, 1, 0xce664386c9dd86fe),
        (&[32, 16], 1, 11, 0x4f51d0bb2b2e37aa),
        (&[32, 16], 3, 1, 0x384acdb34d006da5),
        (&[32, 16], 3, 11, 0x8a6d925f42b4b504),
        (&[32, 16], 16, 1, 0xe1d30a6b01736db3),
        (&[32, 16], 16, 11, 0xb42d8c72678d9eaa),
        (&[32, 16], 34, 1, 0xf9b828dc56d56551),
        (&[32, 16], 34, 11, 0x727de2c46b94546c),
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

    #[test]
    fn short_batches_and_tails_train_deterministically() {
        // Batch sizes below the 4-sample blocking, and 29 rows leave a
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
