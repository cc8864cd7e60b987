//! Johnson-Lindenstrauss sketching.
//!
//! The leverage-score and heavy-hitter machinery (paper Theorem C.2,
//! Algorithm 5) repeatedly multiplies by an `r × m` JL matrix with
//! `r = O(log n / ε²)` to estimate row norms of implicit matrices. We use
//! Rademacher (±1/√r) entries generated deterministically from a seed so
//! sketches are reproducible and never materialized when applied
//! row-wise.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded `r × m` Rademacher JL sketch.
#[derive(Clone, Debug)]
pub struct JlSketch {
    r: usize,
    m: usize,
    /// `1/√r`, the magnitude of every entry.
    scale: f64,
    /// Row-major `r × m` sign bits, one per entry (set = `+scale`).
    signs: Vec<u64>,
}

impl JlSketch {
    /// Sample a sketch with `r` rows over dimension `m`.
    pub fn new(r: usize, m: usize, seed: u64) -> Self {
        assert!(r >= 1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut signs = vec![0u64; (r * m).div_ceil(64)];
        for k in 0..r * m {
            signs[k / 64] |= (rng.gen_bool(0.5) as u64) << (k % 64);
        }
        JlSketch {
            r,
            m,
            scale: 1.0 / (r as f64).sqrt(),
            signs,
        }
    }

    /// Number of sketch rows needed for `(1±ε)` norm estimates with
    /// failure probability `n^{-c}` (standard JL constant).
    pub fn rows_for(eps: f64, n: usize) -> usize {
        ((8.0 * (n.max(2) as f64).ln()) / (eps * eps)).ceil() as usize
    }

    /// Sketch dimension `r`.
    pub fn rows(&self) -> usize {
        self.r
    }

    /// Input dimension `m`.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Entry `(i, j)` of the sketch matrix.
    #[inline]
    pub fn entry(&self, i: usize, j: usize) -> f64 {
        // The signs are coin flips: flip the sign bit of `scale` rather
        // than branch on them.
        let k = i * self.m + j;
        let negative = !self.signs[k / 64] >> (k % 64) & 1;
        f64::from_bits(self.scale.to_bits() ^ negative << 63)
    }

    /// Apply to a dense vector: `y = Q v ∈ R^r`.
    pub fn apply(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.m);
        (0..self.r)
            .map(|i| {
                v.iter()
                    .enumerate()
                    .map(|(j, x)| self.entry(i, j) * x)
                    .sum()
            })
            .collect()
    }

    /// Apply to a sparse vector given as `(index, value)` pairs.
    pub fn apply_sparse(&self, v: &[(usize, f64)]) -> Vec<f64> {
        let mut out = vec![0.0; self.r];
        for &(j, x) in v {
            debug_assert!(j < self.m);
            for (i, o) in out.iter_mut().enumerate() {
                *o += self.entry(i, j) * x;
            }
        }
        out
    }

    /// Apply the transpose to an `r`-vector: `Qᵀ y ∈ R^m`.
    pub fn apply_transpose(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.r);
        (0..self.m)
            .map(|j| (0..self.r).map(|i| self.entry(i, j) * y[i]).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_norms_approximately() {
        let m = 500;
        let q = JlSketch::new(JlSketch::rows_for(0.3, m), m, 1);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..10 {
            let v: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let norm2: f64 = v.iter().map(|x| x * x).sum();
            let sk = q.apply(&v);
            let snorm2: f64 = sk.iter().map(|x| x * x).sum();
            let ratio = snorm2 / norm2;
            assert!(ratio > 0.5 && ratio < 1.7, "ratio {ratio}");
        }
    }

    #[test]
    fn sparse_apply_matches_dense() {
        let q = JlSketch::new(10, 50, 3);
        let mut dense = vec![0.0; 50];
        dense[7] = 2.0;
        dense[33] = -1.5;
        let sparse = vec![(7, 2.0), (33, -1.5)];
        let a = q.apply(&dense);
        let b = q.apply_sparse(&sparse);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_is_adjoint() {
        let q = JlSketch::new(6, 20, 4);
        let mut rng = SmallRng::seed_from_u64(5);
        let v: Vec<f64> = (0..20).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y: Vec<f64> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let qv = q.apply(&v);
        let qty = q.apply_transpose(&y);
        let lhs: f64 = qv.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = v.iter().zip(&qty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-10);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = JlSketch::new(4, 10, 9);
        let b = JlSketch::new(4, 10, 9);
        assert_eq!(a.entry(2, 3), b.entry(2, 3));
    }

    /// The bitset stores exactly the `±1/√r` matrix drawn one `gen_bool`
    /// per entry in row-major order.
    #[test]
    fn entries_match_row_major_sign_draws() {
        for (r, m, seed) in [(1, 1, 0), (3, 50, 7), (24, 2744, 11), (5, 64, 3)] {
            let q = JlSketch::new(r, m, seed);
            let mut rng = SmallRng::seed_from_u64(seed);
            let scale = 1.0 / (r as f64).sqrt();
            for i in 0..r {
                for j in 0..m {
                    let want = if rng.gen_bool(0.5) { scale } else { -scale };
                    assert_eq!(q.entry(i, j).to_bits(), want.to_bits());
                }
            }
        }
    }
}
