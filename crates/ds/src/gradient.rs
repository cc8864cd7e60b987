//! Gradient reduction (paper Lemmas D.2 and D.4, Algorithm 6).
//!
//! The robust IPM steps in the direction `∇Ψ(z)^{♭(τ̄)}` where
//! `x^{♭(τ)} = argmax_{‖w‖_{τ+∞} ≤ 1} ⟨x, w⟩` and
//! `‖w‖_{τ+∞} = ‖w‖_∞ + C·‖w‖_τ`. Rather than computing the
//! m-dimensional maximizer each iteration, coordinates are grouped into
//! `K = O(ε⁻² log n)` buckets of similar `(τ̃_i, z_i)`; the maximizer is
//! then solved in `R^K` ([`flat_max`], Lemma D.2) and the per-bucket
//! aggregates `w^{(k,ℓ)} = Aᵀ G 1_{i∈I^{(k,ℓ)}}` turn it into the
//! n-dimensional product `AᵀG(∇Ψ(z̄))^{♭(τ̄)}` in `Õ(n)` work per query.

use pmcf_graph::DiGraph;
use pmcf_pram::{Cost, Tracker};

/// Solve `argmax_{‖v∘w‖₂ + ‖w‖_∞ ≤ 1} ⟨x, w⟩` exactly (Lemma D.2 /
/// Corollary D.3).
///
/// For an ∞-budget `s` the optimum is `w_i = sign(x_i)·min(s, c·ρ_i)`
/// with `ρ_i = |x_i|/v_i²` and `c` spending the ℓ₂ budget `1 − s`, so the
/// capped coordinates are a prefix of the order by decreasing `ρ`. With
/// the first `j` capped, `A_j = Σ_{i≤j} |x_i|`, `V_j = Σ_{i≤j} v_i²` and
/// `Q_j = Σ_{i>j} |x_i|·ρ_i`, the objective is the concave
/// `G_j(s) = s·A_j + √(Q_j((1−s)² − s²V_j))`, and piece `j` holds for
/// `s` between the points where coordinates `j+1` and `j` reach the cap,
/// `s = 1/(1 + √(V_j + Q_j/ρ²))`. Each piece's maximizer is closed-form;
/// the best piece wins. One sort plus `O(K)` work.
pub fn flat_max(x: &[f64], v: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), v.len());
    debug_assert!(v.iter().all(|&vi| vi > 0.0), "v must be positive");
    let rho = |i: usize| x[i].abs() / (v[i] * v[i]);
    // zero coordinates never pay: w_i = 0
    let mut order: Vec<usize> = (0..x.len()).filter(|&i| x[i] != 0.0).collect();
    order.sort_unstable_by(|&a, &b| rho(b).total_cmp(&rho(a)).then(a.cmp(&b)));
    let k = order.len();
    // Q_j as suffix sums, free of cancellation
    let mut q = vec![0.0; k + 1];
    for j in (0..k).rev() {
        q[j] = q[j + 1] + x[order[j]].abs() * rho(order[j]);
    }
    let cap_edge = |vj: f64, qj: f64, r: f64| 1.0 / (1.0 + (vj + qj / (r * r)).sqrt());
    let gap = |s: f64, vj: f64| ((1.0 - s) * (1.0 - s) - s * s * vj).max(0.0);
    // best (value, s, capped prefix length, ℓ₂ multiplier c)
    let mut best = (f64::NEG_INFINITY, 0.0, 0, 0.0);
    let (mut a, mut vj, mut hi) = (0.0, 0.0, 1.0);
    for j in 0..=k {
        if j > 0 {
            let i = order[j - 1];
            a += x[i].abs();
            vj += v[i] * v[i];
            hi = cap_edge(vj, q[j], rho(i));
        }
        let lo = if j < k {
            cap_edge(vj, q[j], rho(order[j]))
        } else {
            0.0
        };
        // max/min rather than clamp: an underflowed edge (0/0) is NaN
        let s = piece_argmax(a, vj, q[j]).max(lo).min(hi);
        let val = s * a + (q[j] * gap(s, vj)).sqrt();
        if val > best.0 {
            let c = if q[j] > 0.0 {
                (gap(s, vj) / q[j]).sqrt()
            } else {
                0.0
            };
            best = (val, s, j, c);
        }
    }
    let (_, s, j, c) = best;
    let mut w = vec![0.0; x.len()];
    for (rank, &i) in order.iter().enumerate() {
        let mag = if rank < j { s } else { (c * rho(i)).min(s) };
        w[i] = mag.copysign(x[i]);
    }
    w
}

/// Unconstrained maximizer over `s ∈ [0, 1/(1+√V)]` of
/// `G(s) = s·A + √(Q((1−s)² − s²V))`. Substituting
/// `s/(1−s) = sin φ/√V` turns `G' = 0` into
/// `A·cos φ − √(QV)·sin φ = √Q`, whose one root on `[0, π/2]` is
/// `φ = arccos(√Q/R) − atan2(√(QV), A)` with `R² = A² + QV` (the
/// arccosine taken as an `atan2`, accurate near `√Q ≈ R`).
fn piece_argmax(a: f64, v: f64, q: f64) -> f64 {
    if v == 0.0 {
        // nothing capped (A = 0): G = √Q·(1 − s) falls
        return 0.0;
    }
    let b = (q * v).sqrt();
    let r2 = a * a + b * b;
    if r2 <= q {
        // G' < 0 on the whole interval
        return 0.0;
    }
    let phi = (r2 - q).sqrt().atan2(q.sqrt()) - b.atan2(a);
    if phi <= 0.0 {
        return 0.0;
    }
    let sin = phi.sin();
    sin / (v.sqrt() + sin)
}

/// The soft-max potential `Ψ(z) = Σ cosh(λ z_i)` and its gradient
/// `∇Ψ(z)_i = λ sinh(λ z_i)` (paper §2.2 / Theorem D.1).
pub fn grad_psi(lambda: f64, z: f64) -> f64 {
    lambda * (lambda * z).sinh()
}

/// Bucket index for a `(τ̃, z)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BucketId {
    /// `τ̃_i ∈ ((1−ε)^{k+1}, (1−ε)^k]`.
    pub k: u32,
    /// `z_i ∈ [z_lo + ℓ·ε/2, z_lo + (ℓ+1)·ε/2)`.
    pub l: u32,
}

/// Gradient reduction data structure (Lemma D.4).
///
/// Unlike the paper we allow `z ∈ [−2, 2]` (the centrality measure is
/// signed); the bucketing argument is unchanged.
pub struct GradientReduction {
    graph: DiGraph,
    eps: f64,
    lambda: f64,
    c_norm: f64,
    g: Vec<f64>,
    tau: Vec<f64>,
    z: Vec<f64>,
    /// Ψ(z), maintained incrementally.
    potential: f64,
    /// bucket assignment per coordinate
    bucket: Vec<BucketId>,
    /// member count per bucket (dense over the K grid)
    count: Vec<u32>,
    /// `w^{(k,ℓ)} = Aᵀ G 1_bucket ∈ R^n` per bucket
    agg: Vec<Vec<f64>>,
    k_levels: u32,
    l_levels: u32,
}

const Z_LO: f64 = -2.0;
const Z_HI: f64 = 2.0;

impl GradientReduction {
    /// Initialize over the incidence of `graph` with scaling `g`, weights
    /// `τ̃ ∈ [n/m, 2]`, measure `z ∈ [−2, 2]`: `Õ(m)` work, `Õ(1)` depth.
    #[allow(clippy::too_many_arguments)]
    pub fn initialize(
        t: &mut Tracker,
        graph: DiGraph,
        g: Vec<f64>,
        tau: Vec<f64>,
        z: Vec<f64>,
        eps: f64,
        lambda: f64,
        c_norm: f64,
    ) -> Self {
        let (n, m) = (graph.n(), graph.m());
        assert_eq!(g.len(), m);
        assert_eq!(tau.len(), m);
        assert_eq!(z.len(), m);
        let tau_min = (n as f64 / m as f64).min(0.5);
        let k_levels = ((tau_min.ln() / (1.0 - eps).ln()).ceil() as u32 + 2).max(2);
        let l_levels = (((Z_HI - Z_LO) / (eps / 2.0)).ceil() as u32 + 1).max(2);
        let mut s = GradientReduction {
            eps,
            lambda,
            c_norm,
            potential: 0.0,
            bucket: vec![BucketId { k: 0, l: 0 }; m],
            count: vec![0; (k_levels * l_levels) as usize],
            agg: vec![vec![0.0; n]; (k_levels * l_levels) as usize],
            k_levels,
            l_levels,
            graph,
            g,
            tau,
            z,
        };
        for i in 0..m {
            let b = s.bucket_for(s.tau[i], s.z[i]);
            s.bucket[i] = b;
            let fb = s.flat(b);
            s.count[fb] += 1;
            s.potential += (s.lambda * s.z[i]).cosh();
            s.add_to_agg(i, b, 1.0);
        }
        t.charge(Cost::par_flat(m as u64).seq(Cost::scan(m as u64)));
        s
    }

    fn flat(&self, b: BucketId) -> usize {
        (b.k * self.l_levels + b.l) as usize
    }

    fn bucket_for(&self, tau: f64, z: f64) -> BucketId {
        let tau = tau.clamp(1e-12, 2.0);
        let k = ((tau / 2.0).ln() / (1.0 - self.eps).ln())
            .floor()
            .clamp(0.0, (self.k_levels - 1) as f64) as u32;
        let z = z.clamp(Z_LO, Z_HI);
        let l = (((z - Z_LO) / (self.eps / 2.0)).floor() as u32).min(self.l_levels - 1);
        BucketId { k, l }
    }

    /// Representative τ of bucket `k` (upper edge of its interval).
    fn bucket_tau(&self, k: u32) -> f64 {
        2.0 * (1.0 - self.eps).powi(k as i32)
    }

    /// Representative z of bucket `ℓ` (midpoint).
    fn bucket_z(&self, l: u32) -> f64 {
        Z_LO + (l as f64 + 0.5) * self.eps / 2.0
    }

    fn add_to_agg(&mut self, i: usize, b: BucketId, sign: f64) {
        let (u, v) = self.graph.endpoints(i);
        let idx = self.flat(b);
        let w = sign * self.g[i];
        self.agg[idx][u] -= w;
        self.agg[idx][v] += w;
    }

    /// Update coordinates: `g_i ← b_i`, `τ̃_i ← c_i`, `z_i ← d_i`
    /// (Lemma D.4 `Update`): `Õ(|I|)` work.
    pub fn update(&mut self, t: &mut Tracker, updates: &[(usize, f64, f64, f64)]) {
        t.charge(Cost::par_flat(updates.len() as u64));
        for &(i, gi, ti, zi) in updates {
            let old_b = self.bucket[i];
            self.add_to_agg(i, old_b, -1.0);
            let fo = self.flat(old_b);
            self.count[fo] -= 1;
            self.potential += (self.lambda * zi).cosh() - (self.lambda * self.z[i]).cosh();
            self.g[i] = gi;
            self.tau[i] = ti;
            self.z[i] = zi;
            let b = self.bucket_for(ti, zi);
            self.bucket[i] = b;
            let fb = self.flat(b);
            self.count[fb] += 1;
            self.add_to_agg(i, b, 1.0);
        }
    }

    /// Current potential `Ψ(z)` (Lemma D.4 `Potential`, `Õ(1)`).
    pub fn potential(&self) -> f64 {
        self.potential
    }

    /// Query (Lemma D.4): returns `v̄ = AᵀG(∇Ψ(z̄))^{♭(τ̄)} ∈ R^n` and the
    /// per-bucket step values `s` with `(∇Ψ(z̄)^{♭(τ̄)})_i = s[bucket(i)]`.
    /// `Õ(n + K)` work, `Õ(1)` depth.
    pub fn query(&self, t: &mut Tracker) -> (Vec<f64>, Vec<f64>) {
        let kk = self.count.len();
        // low-dimensional representation of the gradient & norm weights,
        // on the occupied buckets only
        let occupied: Vec<usize> = (0..kk).filter(|&idx| self.count[idx] > 0).collect();
        let (xs, vs): (Vec<f64>, Vec<f64>) = occupied
            .iter()
            .map(|&idx| {
                let cnt = self.count[idx] as f64;
                let k = (idx as u32) / self.l_levels;
                let l = (idx as u32) % self.l_levels;
                (
                    cnt * grad_psi(self.lambda, self.bucket_z(l)),
                    (cnt * self.bucket_tau(k)).sqrt() * self.c_norm,
                )
            })
            .unzip();
        let ws = flat_max(&xs, &vs);
        let k_occ = occupied.len() as u64;
        t.charge(
            Cost::sort(k_occ)
                .seq(Cost::par_flat(k_occ))
                .seq(Cost::reduce(k_occ)),
        );
        let mut s = vec![0.0; kk];
        for (&idx, &wj) in occupied.iter().zip(&ws) {
            s[idx] = wj;
        }
        // v̄ = Σ_buckets s_b · w^{(b)}
        let n = self.graph.n();
        let mut out = vec![0.0; n];
        for &idx in &occupied {
            if s[idx] == 0.0 {
                continue;
            }
            for (o, a) in out.iter_mut().zip(&self.agg[idx]) {
                *o += s[idx] * a;
            }
        }
        t.charge(Cost::par_for(
            occupied.len().max(1) as u64,
            Cost::par_flat(n as u64),
        ));
        (out, s)
    }

    /// The per-coordinate step this query implies: `step_i = s[bucket_i]`
    /// (used by the accumulator).
    pub fn bucket_of(&self, i: usize) -> usize {
        self.flat(self.bucket[i])
    }

    /// Number of buckets `K`.
    pub fn num_buckets(&self) -> usize {
        self.count.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcf_graph::generators;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn brute_flat_max(x: &[f64], v: &[f64], grid: usize) -> f64 {
        // random search refined locally — only for tiny K
        let mut rng = SmallRng::seed_from_u64(1);
        let k = x.len();
        let mut best = 0.0f64;
        for _ in 0..grid {
            let dir: Vec<f64> = (0..k)
                .map(|i| x[i].signum() * rng.gen_range(0.0..1.0))
                .collect();
            // scale dir to the boundary: t·(‖v·dir‖₂) + t·‖dir‖∞ = 1
            let l2: f64 = dir
                .iter()
                .zip(v)
                .map(|(d, vi)| (d * vi) * (d * vi))
                .sum::<f64>()
                .sqrt();
            let linf = dir.iter().fold(0.0f64, |a, &d| a.max(d.abs()));
            let t = 1.0 / (l2 + linf);
            let val: f64 = x.iter().zip(&dir).map(|(a, b)| a * b * t).sum();
            best = best.max(val);
        }
        best
    }

    #[test]
    fn flat_max_beats_random_search() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10 {
            let k = rng.gen_range(2..6);
            let x: Vec<f64> = (0..k).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let v: Vec<f64> = (0..k).map(|_| rng.gen_range(0.2..3.0)).collect();
            let w = flat_max(&x, &v);
            let val: f64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
            // feasibility
            let l2: f64 = w
                .iter()
                .zip(&v)
                .map(|(wi, vi)| (wi * vi) * (wi * vi))
                .sum::<f64>()
                .sqrt();
            let linf = w.iter().fold(0.0f64, |a, &wi| a.max(wi.abs()));
            assert!(l2 + linf <= 1.0 + 1e-6, "infeasible: {l2} + {linf}");
            let rnd = brute_flat_max(&x, &v, 3000);
            assert!(val >= rnd - 1e-2, "flat_max {val} < random search {rnd}");
        }
    }

    #[test]
    fn flat_max_single_coordinate() {
        // with one coordinate: max x·w s.t. v|w| + |w| ≤ 1 → w = sign(x)/(1+v)
        let w = flat_max(&[2.0], &[3.0]);
        assert!((w[0] - 1.0 / 4.0).abs() < 1e-6, "w = {}", w[0]);
        let w2 = flat_max(&[-2.0], &[3.0]);
        assert!((w2[0] + 0.25).abs() < 1e-6);
    }

    #[test]
    fn flat_max_empty() {
        assert!(flat_max(&[], &[]).is_empty());
    }

    fn setup(seed: u64) -> (GradientReduction, DiGraph, Vec<f64>, Vec<f64>, Vec<f64>) {
        let g = generators::gnm_digraph(12, 40, seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        let scale: Vec<f64> = (0..40).map(|_| rng.gen_range(0.5..2.0)).collect();
        let tau: Vec<f64> = (0..40).map(|_| rng.gen_range(0.3..1.9)).collect();
        let z: Vec<f64> = (0..40).map(|_| rng.gen_range(-1.5..1.5)).collect();
        let mut t = Tracker::new();
        let gr = GradientReduction::initialize(
            &mut t,
            g.clone(),
            scale.clone(),
            tau.clone(),
            z.clone(),
            0.1,
            2.0,
            3.0,
        );
        (gr, g, scale, tau, z)
    }

    #[test]
    fn potential_matches_direct_sum() {
        let (gr, _, _, _, z) = setup(5);
        let direct: f64 = z.iter().map(|&zi| (2.0 * zi).cosh()).sum();
        assert!((gr.potential() - direct).abs() < 1e-9);
    }

    #[test]
    fn query_matches_explicit_computation() {
        let (gr, g, scale, _, _) = setup(7);
        let mut t = Tracker::new();
        let (vbar, s) = gr.query(&mut t);
        // reconstruct explicitly: step_i = s[bucket(i)], v = AᵀG·step
        let mut expect = vec![0.0; g.n()];
        for i in 0..g.m() {
            let (u, v) = g.endpoints(i);
            let step = s[gr.bucket_of(i)];
            expect[u] -= scale[i] * step;
            expect[v] += scale[i] * step;
        }
        for (a, b) in vbar.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn update_moves_buckets_and_potential() {
        let (mut gr, _, _, _, _) = setup(9);
        let mut t = Tracker::new();
        let p0 = gr.potential();
        gr.update(&mut t, &[(0, 1.0, 1.0, 1.9), (1, 1.0, 0.4, -1.9)]);
        assert!((gr.potential() - p0).abs() > 1e-9, "potential must move");
        // query still consistent
        let (vbar, s) = gr.query(&mut t);
        assert_eq!(vbar.len(), 12);
        assert!(s.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn step_is_flat_norm_bounded() {
        // ‖step‖∞ + C‖step‖_τ̄ ≤ 1 must hold for the implied m-dim step
        let (gr, g, _, tau, _) = setup(11);
        let mut t = Tracker::new();
        let (_, s) = gr.query(&mut t);
        let step: Vec<f64> = (0..g.m()).map(|i| s[gr.bucket_of(i)]).collect();
        let linf = step.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
        let ltau: f64 = step
            .iter()
            .zip(&tau)
            .map(|(&si, &ti)| ti * si * si)
            .sum::<f64>()
            .sqrt();
        // bucket τ̄ approximates τ within (1±ε) so allow slack
        assert!(
            linf + 3.0 * ltau <= 1.15,
            "flat norm {} too large",
            linf + 3.0 * ltau
        );
    }
}
