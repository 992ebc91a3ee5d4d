//! Calibration: the cost-model weights, built in or fitted from measured
//! executions.
//!
//! # Fitting
//!
//! [`Calibration::fit`] solves a ridge-regularised least-squares problem
//! over (feature-vector, measured-seconds) samples: columns are
//! normalised, the normal equations solved by Gaussian elimination, and
//! negative weights clamped to zero with one re-solve over the remaining
//! columns (a single active-set step — enough for 14 well-scaled
//! features). Feature columns never exercised by the sample grid fall
//! back to the built-in constant converted at the fitted unit rate, so an
//! uncalibrated stage still costs something plausible.
//!
//! Every entry point plans under [`Calibration::builtin`]; `bench_planner`
//! fits a calibration on its measured grid and scores both, so the two
//! weight sets can be compared on the same runs.

use super::cost::{Weights, NWEIGHTS};

/// The planner's knowledge: fitted (or built-in) stage weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    pub weights: Weights,
    /// Number of measured samples the weights were fitted from (0 ⇒
    /// built-in constants).
    pub samples: u32,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::builtin()
    }
}

impl Calibration {
    /// The uncalibrated fallback: the hand-tuned constants.
    pub fn builtin() -> Self {
        Calibration {
            weights: Weights::BUILTIN,
            samples: 0,
        }
    }

    /// Were the weights fitted from measurements?
    pub fn is_calibrated(&self) -> bool {
        self.samples > 0
    }

    /// Model cost of a feature vector.
    pub fn raw(&self, feats: &[f64; NWEIGHTS]) -> f64 {
        self.weights.dot(feats)
    }

    /// Fit weights from `(features, measured_seconds)` samples. Returns
    /// `None` when the system is hopelessly underdetermined (fewer samples
    /// than two, or all-zero features).
    pub fn fit(raw_samples: &[([f64; NWEIGHTS], f64)]) -> Option<Calibration> {
        // Fit in *relative* space — scale each sample by 1/measured so the
        // loss is relative error, not absolute seconds. A grid mixes 2 ms
        // and 40 ms cells; in absolute space the big cells dominate and
        // the model can be 2× off on the small ones, which is exactly
        // where plan rankings are tight.
        let samples: Vec<([f64; NWEIGHTS], f64)> = raw_samples
            .iter()
            .filter(|(_, y)| y.is_finite() && *y > 0.0)
            .map(|(f, y)| (f.map(|x| x / y), 1.0))
            .collect();
        let samples = samples.as_slice();
        if samples.len() < 2 {
            return None;
        }
        // Column norms for scaling; remember never-exercised columns.
        let mut norm = [0.0f64; NWEIGHTS];
        for (f, _) in samples {
            for (j, x) in f.iter().enumerate() {
                norm[j] += x * x;
            }
        }
        for n in &mut norm {
            *n = n.sqrt();
        }
        if norm.iter().all(|&n| n == 0.0) {
            return None;
        }
        // Global unit estimate: measured seconds per built-in unit —
        // the fallback rate for unexercised columns.
        let total_builtin: f64 = samples.iter().map(|(f, _)| Weights::BUILTIN.dot(f)).sum();
        let total_secs: f64 = samples.iter().map(|(_, y)| *y).sum();
        let unit = if total_builtin > 0.0 {
            total_secs / total_builtin
        } else {
            1.0
        };

        let active: Vec<usize> = (0..NWEIGHTS).filter(|&j| norm[j] > 0.0).collect();
        let mut w = solve_ridge(samples, &active, &norm);
        // One active-set step: clamp negatives to zero, re-solve the rest.
        if w.iter().any(|&x| x < 0.0) {
            let keep: Vec<usize> = active.iter().copied().filter(|&j| w[j] >= 0.0).collect();
            let mut w2 = solve_ridge(samples, &keep, &norm);
            for x in &mut w2 {
                if *x < 0.0 {
                    *x = 0.0;
                }
            }
            w = w2;
        }
        // Unexercised columns: built-in constant at the fitted unit rate.
        // Exercised columns are floored at a small fraction of the same —
        // least squares happily zeroes a stage whose contribution sits in
        // its noise floor (e.g. a shard merge worth ~1 ms inside 40 ms
        // cells), and a zero-cost stage would let the planner rank a plan
        // that does strictly more work as tied with one that does not.
        for j in 0..NWEIGHTS {
            if norm[j] == 0.0 {
                w[j] = Weights::BUILTIN.0[j] * unit;
            } else {
                w[j] = w[j].max(0.02 * Weights::BUILTIN.0[j] * unit);
            }
        }
        Some(Calibration {
            weights: Weights(w),
            samples: samples.len() as u32,
        })
    }
}

/// Ridge least squares over the `active` feature columns with per-column
/// normalisation: solve (A'ᵀA' + λI) w' = A'ᵀy with A' = A / colnorm,
/// return w (inactive slots zero).
fn solve_ridge(
    samples: &[([f64; NWEIGHTS], f64)],
    active: &[usize],
    norm: &[f64; NWEIGHTS],
) -> [f64; NWEIGHTS] {
    let k = active.len();
    let mut out = [0.0; NWEIGHTS];
    if k == 0 {
        return out;
    }
    let mut ata = vec![vec![0.0f64; k]; k];
    let mut aty = vec![0.0f64; k];
    for (f, y) in samples {
        for (a, &ja) in active.iter().enumerate() {
            let xa = f[ja] / norm[ja];
            aty[a] += xa * y;
            for (b, &jb) in active.iter().enumerate() {
                ata[a][b] += xa * f[jb] / norm[jb];
            }
        }
    }
    const LAMBDA: f64 = 1e-4;
    // Scale the ridge to the problem: λ relative to the mean diagonal.
    let mean_diag: f64 = (0..k).map(|i| ata[i][i]).sum::<f64>() / k as f64;
    for (i, row) in ata.iter_mut().enumerate() {
        row[i] += LAMBDA * mean_diag.max(1e-30);
    }
    // Gaussian elimination with partial pivoting.
    let mut m = ata;
    let mut y = aty;
    for col in 0..k {
        let (pivot, _) = (col..k)
            .map(|r| (r, m[r][col].abs()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        m.swap(col, pivot);
        y.swap(col, pivot);
        let p = m[col][col];
        if p.abs() < 1e-300 {
            continue;
        }
        for r in (col + 1)..k {
            let factor = m[r][col] / p;
            if factor == 0.0 {
                continue;
            }
            let (pivot_rows, lower) = m.split_at_mut(r);
            for (c, cell) in lower[0].iter_mut().enumerate().skip(col) {
                *cell -= factor * pivot_rows[col][c];
            }
            y[r] -= factor * y[col];
        }
    }
    let mut w = vec![0.0f64; k];
    for col in (0..k).rev() {
        let mut acc = y[col];
        for c in (col + 1)..k {
            acc -= m[col][c] * w[c];
        }
        let p = m[col][col];
        w[col] = if p.abs() < 1e-300 { 0.0 } else { acc / p };
    }
    for (a, &j) in active.iter().enumerate() {
        out[j] = w[a] / norm[j];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_known_weights() {
        // Synthesize samples from a known weight vector over random-ish
        // deterministic features; the fit must reproduce the costs.
        let mut truth = [0.0; NWEIGHTS];
        for (j, t) in truth.iter_mut().enumerate() {
            *t = 1e-9 * (j as f64 + 1.0);
        }
        let mut samples = Vec::new();
        let mut state = 0x1234_5678u64;
        for _ in 0..64 {
            let mut f = [0.0; NWEIGHTS];
            for x in &mut f {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *x = ((state >> 33) % 1_000_000) as f64;
            }
            let y: f64 = truth.iter().zip(&f).map(|(w, x)| w * x).sum();
            samples.push((f, y));
        }
        let cal = Calibration::fit(&samples).expect("fit");
        assert_eq!(cal.samples, 64);
        for (f, y) in &samples {
            let pred = cal.raw(f);
            assert!(
                (pred - y).abs() <= 0.02 * y.abs().max(1e-12),
                "pred {pred} vs truth {y}"
            );
        }
    }

    #[test]
    fn fit_handles_unexercised_columns() {
        // Only the blend feature varies; the merge column is never hit.
        let samples: Vec<([f64; NWEIGHTS], f64)> = (1..20)
            .map(|i| {
                let mut f = [0.0; NWEIGHTS];
                f[super::super::cost::W_BLEND] = i as f64 * 1000.0;
                (f, i as f64 * 1e-3)
            })
            .collect();
        let cal = Calibration::fit(&samples).expect("fit");
        let w = cal.weights.0;
        assert!((w[super::super::cost::W_BLEND] - 1e-6).abs() < 1e-8);
        // Unseen column got the built-in constant at the fitted unit rate.
        assert!(w[super::super::cost::W_MERGE_PX] > 0.0);
    }

    #[test]
    fn fit_never_returns_negative_weights() {
        // Collinear + noisy samples that push naive LS negative.
        let mut samples = Vec::new();
        for i in 1..40 {
            let mut f = [0.0; NWEIGHTS];
            f[0] = i as f64;
            f[1] = i as f64 * 2.0; // collinear with column 0
            samples.push((f, i as f64 * 3.0 + if i % 2 == 0 { 0.5 } else { -0.5 }));
        }
        let cal = Calibration::fit(&samples).expect("fit");
        assert!(cal.weights.0.iter().all(|&w| w >= 0.0));
    }

    #[test]
    fn builtin_is_not_calibrated() {
        assert!(!Calibration::builtin().is_calibrated());
        let mut f = [0.0; NWEIGHTS];
        f[super::super::cost::W_BLEND] = 1000.0;
        let fitted = Calibration::fit(&[(f, 1e-3), (f, 1.1e-3)]).expect("fit");
        assert!(fitted.is_calibrated());
    }
}
