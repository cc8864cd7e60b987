//! Workloads, input generators, the oracle check and the statistics of
//! the `perfbench` benchmark. `main.rs` drives them; see `BENCHMARK.json`
//! at the repository root for the metric list and `metrics.json` in this
//! package for which layer each metric belongs to.
//!
//! Every input is a pure function of the run's `--seed`: a run consumes
//! rounds `0, 1, 2, …` until its time budget is spent, and round `r`
//! always holds the same instances (and, on churn, the same delta
//! stream) for a given seed.

use pmcf_core::{Engine, McfError, McfSolution, NewEdge, ResolveDelta, SolverConfig};
use pmcf_graph::{generators, DiGraph, McfProblem};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Largest capacity drawn by every generator.
pub const MAX_CAP: i64 = 8;
/// Largest |cost| drawn by every generator.
pub const MAX_COST: i64 = 6;
/// Vertices of each churn checkpoint.
pub const CHURN_N: usize = 100;
/// Edges of each churn checkpoint.
pub const CHURN_M: usize = 1000;
/// Deltas played against one checkpoint (one churn round).
pub const CHURN_DELTAS: usize = 40;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The robust (paper) engine on dense random instances.
    RobustDense,
    /// The default configuration (reference engine) on dense instances.
    ReferenceDense,
    /// Incremental re-solves of a stream of deltas against a checkpoint.
    ResolveChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::RobustDense,
        Workload::ReferenceDense,
        Workload::ResolveChurn,
    ];

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RobustDense => "robust_dense",
            Workload::ReferenceDense => "reference_dense",
            Workload::ResolveChurn => "resolve_churn",
        }
    }

    /// The solver configuration every operation of the workload uses.
    pub fn config(self) -> SolverConfig {
        match self {
            Workload::RobustDense => SolverConfig {
                engine: Engine::Robust,
                ..SolverConfig::default()
            },
            Workload::ReferenceDense | Workload::ResolveChurn => SolverConfig::default(),
        }
    }

    /// Vertex counts of one round's dense instances. Two small instances
    /// per large one: the median then falls among the small size's
    /// samples and p90 among the large size's, never in the gap between
    /// the sizes, where two extreme samples would set it.
    pub fn dense_sizes(self) -> &'static [usize] {
        match self {
            Workload::RobustDense => &[36, 36, 64],
            Workload::ReferenceDense => &[144, 144, 196],
            Workload::ResolveChurn => &[],
        }
    }

    /// `(n, m)` of every instance shape the workload runs.
    pub fn shapes(self) -> Vec<(usize, usize)> {
        match self {
            Workload::ResolveChurn => vec![(CHURN_N, CHURN_M)],
            w => {
                let mut sizes = w.dense_sizes().to_vec();
                sizes.dedup();
                sizes.iter().map(|&n| (n, generators::dense_m(n))).collect()
            }
        }
    }

    /// Rounds whose charged cost and layer counts are reported. Every run
    /// plays at least these rounds, so the counts cover the same
    /// operations in every run of a seed and repeat exactly.
    pub fn charged_rounds(self) -> u64 {
        match self {
            Workload::RobustDense => 2,
            Workload::ReferenceDense => 6,
            Workload::ResolveChurn => 3,
        }
    }
}

/// SplitMix64 finalizer: decorrelates the per-round sub-seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of instance `k` of round `round` under run seed `seed`.
pub fn sub_seed(seed: u64, round: u64, k: u64) -> u64 {
    mix(mix(mix(seed) ^ round) ^ k)
}

/// The dense instances of one round: `generators::random_mcf` at
/// `m = dense_m(n)` for each of the workload's sizes.
pub fn dense_round(w: Workload, seed: u64, round: u64) -> Vec<McfProblem> {
    w.dense_sizes()
        .iter()
        .enumerate()
        .map(|(k, &n)| {
            let m = generators::dense_m(n);
            generators::random_mcf(n, m, MAX_CAP, MAX_COST, sub_seed(seed, round, k as u64))
        })
        .collect()
}

/// The delta stream of one churn round, together with a mirror of the
/// mutated instance and a witness flow that keeps it feasible.
///
/// Every delta keeps the witness feasible: deletions only take edges the
/// witness leaves empty, capacities never drop below the witness flow,
/// and inserted edges carry none. So no operation of the workload is an
/// infeasibility verdict, and every resolve stays on the warm path.
pub struct ChurnStream {
    problem: McfProblem,
    witness: Vec<i64>,
    rng: SmallRng,
    drawn: usize,
}

impl ChurnStream {
    /// The checkpoint instance of round `round` and its delta stream: a
    /// connected `gnm_digraph(CHURN_N, CHURN_M)` with random capacities
    /// and costs, and demands routed by a random witness flow.
    pub fn new(seed: u64, round: u64) -> ChurnStream {
        let s = sub_seed(seed, round, 0);
        let graph = generators::gnm_digraph(CHURN_N, CHURN_M, s);
        let mut rng = SmallRng::seed_from_u64(mix(s));
        let cap: Vec<i64> = (0..CHURN_M).map(|_| rng.gen_range(1..=MAX_CAP)).collect();
        let cost: Vec<i64> = (0..CHURN_M)
            .map(|_| rng.gen_range(-MAX_COST..=MAX_COST))
            .collect();
        let witness: Vec<i64> = cap.iter().map(|&u| rng.gen_range(0..=u)).collect();
        let mut demand = vec![0i64; CHURN_N];
        for (e, &(u, v)) in graph.edges().iter().enumerate() {
            demand[u] -= witness[e];
            demand[v] += witness[e];
        }
        ChurnStream {
            problem: McfProblem::new(graph, cap, cost, demand),
            witness,
            rng,
            drawn: 0,
        }
    }

    /// The instance after every delta drawn so far (before the first
    /// draw: the checkpoint instance).
    pub fn problem(&self) -> &McfProblem {
        &self.problem
    }

    /// Draw the next delta and apply it to the mirror instance. Every
    /// third delta changes one cost; the others are batches of 2 to
    /// `CHURN_M/20` edges, a quarter deletions, a quarter insertions and
    /// the rest cost and capacity changes. The mix is fixed, not drawn
    /// (the batch sizes step through the range in a fixed order), so
    /// every round and seed holds the same share of each kind.
    pub fn next_delta(&mut self) -> ResolveDelta {
        let (n, m) = (self.problem.n(), self.problem.m());
        let rng = &mut self.rng;
        let mut delta = ResolveDelta::default();
        let i = self.drawn;
        self.drawn += 1;
        if i.is_multiple_of(3) {
            delta
                .set_cost
                .push((rng.gen_range(0..m), rng.gen_range(-MAX_COST..=MAX_COST)));
        } else {
            // 37 is coprime to the 49 sizes, so a round's sizes are distinct
            let k = 2 + (i * 37) % (CHURN_M / 20 - 1);
            // distinct edges, so no update lands on a deleted edge
            let mut pool: Vec<usize> = (0..m).collect();
            let pick = |rng: &mut SmallRng, pool: &mut Vec<usize>, empty_only: bool| {
                for _ in 0..pool.len() {
                    let e = pool.swap_remove(rng.gen_range(0..pool.len()));
                    if !empty_only || self.witness[e] == 0 {
                        return Some(e);
                    }
                    pool.push(e);
                }
                None
            };
            for _ in 0..k / 4 {
                if let Some(e) = pick(rng, &mut pool, true) {
                    delta.delete.push(e);
                }
                let from = rng.gen_range(0..n);
                delta.insert.push(NewEdge {
                    from,
                    to: (from + rng.gen_range(1..n)) % n,
                    cap: rng.gen_range(1..=MAX_CAP),
                    cost: rng.gen_range(-MAX_COST..=MAX_COST),
                });
            }
            for _ in 0..k - 2 * (k / 4) {
                let e = pick(rng, &mut pool, false).expect("batch is smaller than m");
                if rng.gen_bool(0.5) {
                    delta
                        .set_cost
                        .push((e, rng.gen_range(-MAX_COST..=MAX_COST)));
                } else {
                    let lo = self.witness[e].max(1);
                    delta.set_cap.push((e, rng.gen_range(lo..=MAX_CAP)));
                }
            }
        }
        self.apply(&delta);
        delta
    }

    /// Apply `delta` with `ResolveDelta`'s documented semantics: updates
    /// on pre-delta indices, then deletions (survivors keep their order),
    /// then insertions appended.
    fn apply(&mut self, delta: &ResolveDelta) {
        let p = &self.problem;
        let (mut cap, mut cost) = (p.cap.clone(), p.cost.clone());
        for &(e, c) in &delta.set_cost {
            cost[e] = c;
        }
        for &(e, u) in &delta.set_cap {
            cap[e] = u;
        }
        let mut deleted = vec![false; p.m()];
        for &e in &delta.delete {
            deleted[e] = true;
        }
        let keep = |e: &usize| !deleted[*e];
        let survivors: Vec<usize> = (0..p.m()).filter(keep).collect();
        let mut edges: Vec<(usize, usize)> =
            survivors.iter().map(|&e| p.graph.endpoints(e)).collect();
        let mut cap: Vec<i64> = survivors.iter().map(|&e| cap[e]).collect();
        let mut cost: Vec<i64> = survivors.iter().map(|&e| cost[e]).collect();
        let mut witness: Vec<i64> = survivors.iter().map(|&e| self.witness[e]).collect();
        for ne in &delta.insert {
            edges.push((ne.from, ne.to));
            cap.push(ne.cap);
            cost.push(ne.cost);
            witness.push(0);
        }
        let graph = DiGraph::from_edges(p.n(), edges);
        self.problem = McfProblem::new(graph, cap, cost, p.demand.clone());
        self.witness = witness;
    }
}

/// Check one operation's answer against the SSP oracle on the same
/// instance: an optimum must be feasible and cost exactly what SSP's
/// does; an infeasibility verdict must be shared by SSP. Returns a
/// description of the mismatch.
pub fn check(p: &McfProblem, got: &Result<McfSolution, McfError>) -> Result<(), String> {
    let oracle = pmcf_baselines::ssp::min_cost_flow(p);
    match (got, oracle) {
        (Ok(sol), Some(opt)) => {
            let want = opt.cost(p);
            if !sol.flow.is_feasible(p) {
                Err("returned flow is infeasible".into())
            } else if sol.flow.cost(p) != sol.cost || sol.cost != want {
                Err(format!(
                    "cost {} but the oracle's optimum is {want}",
                    sol.cost
                ))
            } else {
                Ok(())
            }
        }
        (Err(McfError::Infeasible), None) => Ok(()),
        (Ok(sol), None) => Err(format!(
            "optimum of cost {} on an instance the oracle finds infeasible",
            sol.cost
        )),
        (Err(e), _) => Err(format!("solver error: {e}")),
    }
}

/// Nearest-rank percentile `pct` (0–100] of ascending `sorted`.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of percentile `pct` among `n ≥ 1` samples. The
/// guard keeps products like `99.9% × 10000` that land a rounding error
/// above an integer from taking the next rank.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of ascending `sorted` (mean of the middle pair on even counts).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let k = sorted.len();
    if k % 2 == 1 {
        sorted[k / 2]
    } else {
        (sorted[k / 2 - 1] + sorted[k / 2]) / 2.0
    }
}

/// Samples strictly above the nearest-rank `pct` percentile of `n`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

/// The highest of the percentiles 50, 90, 95, 99, 99.9 that leaves at
/// least ten of `n` samples beyond it, or `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}
