//! Regularized Lewis-weight maintenance (paper Theorem C.1 via
//! Theorem C.2, Algorithms 4–5).
//!
//! The paper's structure detects leverage-score drift with heavy hitters
//! and JL sketches, amortizing a full rebuild over `T = √n` queries. We
//! keep the same *cost envelope and interface* with a leaner mechanism
//! (DESIGN.md §2): at each rebuild the full regularized Lewis weights are
//! recomputed (sketched leverage scores, `Õ(m/ε²)` — amortized
//! `Õ(m/√n)` per query) and the quadratic forms
//! `quad_e = a_eᵀ(AᵀDA)⁻¹a_e` are cached; between rebuilds a scaled
//! coordinate's leverage is refreshed *locally* as
//! `σ̄_e = d_e·quad_e` — exact when only `e`'s own weight moved, and
//! accurate to the IPM's slow-drift guarantee (eq. 13/14) otherwise.

use pmcf_linalg::leverage::estimate_leverage;
use pmcf_linalg::lewis::lewis_weights;
use pmcf_linalg::solver::LaplacianSolver;
use pmcf_pram::{Cost, Tracker};

/// The Theorem C.1 data structure.
pub struct LewisMaintenance {
    solver: LaplacianSolver,
    p: f64,
    z_reg: f64,
    eps: f64,
    /// Current scaling `g` of the matrix `GA`.
    g: Vec<f64>,
    /// Reported weights `τ̄`.
    tau: Vec<f64>,
    /// `τ̄` at the time each coordinate was last reported changed.
    tau_reported: Vec<f64>,
    /// Cached `a_eᵀ(AᵀDA)⁻¹a_e` from the last rebuild.
    quad: Vec<f64>,
    dirty: Vec<usize>,
    /// Coordinates refreshed by the most recent non-rebuild query.
    last_refreshed: Vec<usize>,
    queries: usize,
    rebuild_every: usize,
    seed: u64,
}

impl LewisMaintenance {
    /// Initialize (Theorem C.1 `Initialize`): `Õ(m)` work, `Õ(1)` depth.
    pub fn initialize(
        t: &mut Tracker,
        solver: LaplacianSolver,
        g: Vec<f64>,
        p: f64,
        z_reg: f64,
        eps: f64,
        seed: u64,
    ) -> Self {
        let m = solver.graph().m();
        assert_eq!(g.len(), m);
        let n = solver.graph().n();
        let rebuild_every = ((n as f64).sqrt().ceil() as usize).max(4);
        let mut s = LewisMaintenance {
            p,
            z_reg,
            eps,
            tau: vec![0.0; m],
            tau_reported: vec![0.0; m],
            quad: vec![0.0; m],
            dirty: Vec::new(),
            last_refreshed: Vec::new(),
            queries: 0,
            rebuild_every,
            seed,
            g,
            solver,
        };
        s.rebuild(t);
        s.tau_reported = s.tau.clone();
        s
    }

    /// Initialize from precomputed weights (skips the initial rebuild —
    /// used when the caller already holds fresh Lewis weights, e.g. at an
    /// epoch boundary of the robust IPM). The quadratic-form cache is
    /// derived from the given weights directly.
    #[allow(clippy::too_many_arguments)]
    pub fn from_weights(
        t: &mut Tracker,
        solver: LaplacianSolver,
        g: Vec<f64>,
        tau: Vec<f64>,
        p: f64,
        z_reg: f64,
        eps: f64,
        rebuild_every: usize,
        seed: u64,
    ) -> Self {
        let m = solver.graph().m();
        assert_eq!(g.len(), m);
        assert_eq!(tau.len(), m);
        let quad: Vec<f64> = (0..m)
            .map(|e| {
                let d = tau[e].powf(1.0 - 2.0 / p) * g[e] * g[e];
                ((tau[e] - z_reg).max(0.0) / d.max(1e-300)).max(0.0)
            })
            .collect();
        t.charge(Cost::par_flat(m as u64));
        LewisMaintenance {
            p,
            z_reg,
            eps,
            tau_reported: tau.clone(),
            tau,
            quad,
            dirty: Vec::new(),
            last_refreshed: Vec::new(),
            queries: 0,
            rebuild_every: rebuild_every.max(4),
            seed,
            g,
            solver,
        }
    }

    fn rebuild(&mut self, t: &mut Tracker) {
        self.seed = self.seed.wrapping_add(0x9e3779b97f4a7c15);
        let iters = 3;
        self.tau = lewis_weights(
            t,
            &self.solver,
            &self.g,
            self.p,
            self.z_reg,
            iters,
            self.eps.max(0.7),
            self.seed,
        );
        // cache the quadratic forms under the final scaling
        let d: Vec<f64> = self
            .tau
            .iter()
            .zip(&self.g)
            .map(|(&tw, &s)| tw.powf(1.0 - 2.0 / self.p) * s * s)
            .collect();
        let sigma = estimate_leverage(t, &self.solver, &d, self.eps.max(0.7), self.seed ^ 1);
        for e in 0..self.quad.len() {
            self.quad[e] = sigma[e] / d[e].max(1e-300);
        }
        t.charge(Cost::par_flat(self.quad.len() as u64));
        self.dirty.clear();
    }

    /// Update scalings `g_i ← b_i` (Theorem C.1 `Scale`).
    pub fn scale(&mut self, t: &mut Tracker, updates: &[(usize, f64)]) {
        t.charge(Cost::par_flat(updates.len() as u64));
        for &(i, b) in updates {
            assert!(b > 0.0, "scaling must be positive");
            self.g[i] = b;
            self.dirty.push(i);
        }
    }

    /// Query (Theorem C.1 `Query`): returns the indices whose reported
    /// `τ̄` changed (beyond ε/4 relatively) and the current weights.
    /// Amortized `Õ(m/√n + n)` work.
    pub fn query(&mut self, t: &mut Tracker) -> (Vec<usize>, &[f64]) {
        let mut guard = t.span_guard("ds/lewis-query");
        let t = &mut *guard;
        self.queries += 1;
        let rebuilt = self.queries.is_multiple_of(self.rebuild_every);
        if rebuilt {
            self.rebuild(t);
            self.last_refreshed.clear();
        } else {
            // local refresh of scaled coordinates
            let dirty = std::mem::take(&mut self.dirty);
            t.charge(Cost::par_flat(dirty.len().max(1) as u64));
            for &i in &dirty {
                let d = self.tau[i].powf(1.0 - 2.0 / self.p) * self.g[i] * self.g[i];
                let sigma = (self.quad[i] * d).clamp(0.0, 1.0);
                self.tau[i] = sigma + self.z_reg;
            }
            self.last_refreshed = dirty;
        }
        // change reporting: after a rebuild everything may have moved
        // (scan all, amortized over the rebuild period); otherwise only
        // locally-refreshed coordinates can have changed.
        let scan: Vec<usize> = if rebuilt {
            (0..self.tau.len()).collect()
        } else {
            self.last_refreshed.clone()
        };
        let mut changed = Vec::new();
        for &i in &scan {
            let rel = (self.tau[i] - self.tau_reported[i]).abs() / self.tau_reported[i].max(1e-300);
            if rel > self.eps / 4.0 {
                self.tau_reported[i] = self.tau[i];
                changed.push(i);
            }
        }
        t.charge(Cost::par_flat(scan.len().max(1) as u64));
        (changed, &self.tau)
    }

    /// Current weights without stepping the query counter.
    pub fn current(&self) -> &[f64] {
        &self.tau
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcf_graph::generators;
    use pmcf_linalg::lewis::{exact_lewis_weights, ipm_p};
    use pmcf_linalg::solver::SolverOpts;

    fn setup(n: usize, m: usize, seed: u64) -> (LewisMaintenance, Tracker, f64, f64) {
        let g = generators::gnm_digraph(n, m, seed);
        let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
        let p = ipm_p(n, m);
        let z = n as f64 / m as f64;
        let mut t = Tracker::new();
        let lm = LewisMaintenance::initialize(&mut t, solver, vec![1.0; m], p, z, 0.2, seed);
        (lm, t, p, z)
    }

    #[test]
    fn initial_weights_match_exact_fixed_point() {
        let (lm, _, p, z) = setup(12, 48, 1);
        let g = generators::gnm_digraph(12, 48, 1);
        let exact = exact_lewis_weights(&g, &vec![1.0; 48], 0, p, z, 30);
        // The estimator's JL sketch is hard-capped at 24 rows (see
        // `estimate_leverage`), so individual scores carry ~30% relative
        // noise; bound each edge loosely and the mean error tightly.
        let mut rel_sum = 0.0;
        for (e, (a, b)) in lm.current().iter().zip(&exact).enumerate() {
            assert!((a - b).abs() < 0.6 * b + 0.05, "edge {e}: {a} vs {b}");
            rel_sum += (a - b).abs() / b;
        }
        let mean_rel = rel_sum / exact.len() as f64;
        assert!(mean_rel < 0.2, "mean relative error {mean_rel}");
    }

    #[test]
    fn local_updates_track_scaled_coordinates() {
        let (mut lm, mut t, _, z) = setup(12, 48, 2);
        let tau_before = lm.current()[5];
        // shrink edge 5's weight a lot: its leverage (≈ d·quad) must drop
        lm.scale(&mut t, &[(5, 0.2)]);
        let (changed, tau) = lm.query(&mut t);
        assert!(changed.contains(&5), "scaled coordinate must be reported");
        assert!(
            tau[5] < tau_before,
            "τ̄[5] should drop: {} vs {}",
            tau[5],
            tau_before
        );
        assert!(tau[5] >= z, "regularizer is a floor");
    }

    #[test]
    fn quiet_queries_report_nothing() {
        let (mut lm, mut t, _, _) = setup(10, 40, 3);
        let (changed, _) = lm.query(&mut t);
        assert!(changed.is_empty(), "no scales ⇒ no changes: {changed:?}");
    }

    #[test]
    fn rebuild_restores_accuracy_after_drift() {
        let (mut lm, mut t, p, z) = setup(12, 48, 4);
        // drift many coordinates, run past the rebuild period
        let mut g_now = vec![1.0; 48];
        for step in 0..10 {
            let i = step * 4 % 48;
            let b = 1.0 + 0.3 * ((step % 3) as f64);
            g_now[i] = b;
            lm.scale(&mut t, &[(i, b)]);
            let _ = lm.query(&mut t);
        }
        let g = generators::gnm_digraph(12, 48, 4);
        let exact = exact_lewis_weights(&g, &g_now, 0, p, z, 30);
        for (e, (a, b)) in lm.current().iter().zip(&exact).enumerate() {
            assert!(
                (a - b).abs() < 0.7 * b + 0.15,
                "edge {e}: {a} vs {b} after drift+rebuild"
            );
        }
    }
}
