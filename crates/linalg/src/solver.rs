//! The parallel SDD solver (paper Lemma A.1).
//!
//! Solves `AᵀDA x = b` where `A` is a (column-deleted) incidence matrix
//! and `D` a positive diagonal — i.e. a grounded weighted graph
//! Laplacian. The paper cites the `Õ(nnz)`-work, `Õ(1)`-depth solver of
//! \[PS14\]; per DESIGN.md §2 we substitute Jacobi-preconditioned conjugate
//! gradient: identical interface (ε-approximate solve), matrix-free
//! parallel matvecs, and the iteration count is *reported* in
//! [`SolveStats`] so the substitution's cost is visible rather than
//! hidden.
//!
//! ## Reuse layer
//!
//! The IPM calls this solver thousands of times against slowly-drifting
//! diagonals, so the solver carries state worth reusing:
//!
//! * **Preconditioner cache** — the Jacobi diagonal, and `d` gathered
//!   into adjacency order for the matvec, are keyed on an optional
//!   caller-supplied `d` *generation* ([`SolveParams::d_gen`]) *and* a
//!   fingerprint of the graph topology (n, m, ground, edge set), so
//!   repeated solves against the same `d` rebuild nothing while a
//!   [`LaplacianSolver::retarget`] to a different graph can never serve a
//!   stale diagonal even if the caller reuses a generation.
//! * **Warm starts** — [`SolveParams::guess`] seeds CG from a previous
//!   solution (`D` drifts slowly along the central path, so the previous
//!   Newton direction is close). A guess is accepted only if it strictly
//!   beats the zero start (`‖b − Lx₀‖ < ‖b‖`), so a stale guess can never
//!   hurt convergence; acceptance shows up in
//!   [`SolveStats::warm_start`] and the `solver.warm_start_hits` counter.
//! * **Batched multi-RHS** — [`LaplacianSolver::solve_batch`] solves
//!   several right-hand sides against one diagonal: the preconditioner is
//!   built once and the right-hand sides run in lane groups of eight,
//!   each group one parallel branch ([`Tracker::parallel`]) whose CG
//!   iterations share one pass over the adjacency per matvec. The model
//!   charges every right-hand side as its own branch, matching the
//!   paper's "`Õ(1/ε²)` independent instances" structure.
//! * **Per-phase tolerance** — [`SolveParams::opts`] overrides the
//!   construction-time tolerance per call, so callers can solve loosely
//!   far from the central path and tightly near termination.
//!
//! ## One CG body, `L` lanes
//!
//! Every solve runs the same lane-generic kernel: `L` right-hand sides
//! interleaved vertex-major (`buf[v·L + j]` is lane `j` at vertex `v`),
//! one adjacency pass per matvec for all of them. A single solve is the
//! one-lane instance. Each lane performs exactly the floating-point
//! operations of a scalar Jacobi-PCG run, in the same order — reductions
//! fold over vertices `0..n` from the same starting zero — and keeps its
//! own step sizes, convergence and breakdown flags, best iterate and
//! warm-start decision. A lane's solution, [`SolveStats`] and charged
//! cost are therefore bit-identical to a solve of its right-hand side
//! alone (proptest-pinned against the scalar CG kept as a test oracle).
//! Above the sequential cutoff the vector passes run on the pool in
//! fixed-size vertex blocks, so results do not depend on the thread
//! count.
//!
//! Every solve feeds the `solver.solves` / `solver.cg_iterations_total` /
//! `solver.warm_start_hits` counters, the `solver.cg_iterations`
//! histogram, and (when a flight recorder is installed) emits a
//! `solver.solve` event. Batched solves run on pool threads, which carry
//! no flight recorder, so the batch entry point emits one `solver.batch`
//! summary event from the calling thread instead.

use pmcf_graph::{incidence, DiGraph};
use pmcf_pram::{seq_cutoff, Cost, Tracker, Workspace};
use rayon::prelude::*;
use std::sync::{Arc, Mutex};

/// Right-hand sides per lane group of a batched solve.
pub(crate) const LANES: usize = 8;

/// Vertices per block of a sweep above the sequential cutoff. Fixed, so
/// the blocks — and with them every per-lane sum — do not depend on the
/// pool's thread count.
const SWEEP_BLOCK: usize = 1024;
/// Options controlling a Laplacian solve.
#[derive(Clone, Copy, Debug)]
pub struct SolverOpts {
    /// Relative residual target `‖b − Lx‖₂ ≤ tol · ‖b‖₂`.
    pub tol: f64,
    /// Iteration cap (the best iterate seen is returned on overrun).
    pub max_iter: usize,
}

impl Default for SolverOpts {
    fn default() -> Self {
        SolverOpts {
            tol: 1e-10,
            max_iter: 10_000,
        }
    }
}

/// Statistics from one solve.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// CG iterations used.
    pub iterations: usize,
    /// Relative residual of the *returned* iterate.
    pub rel_residual: f64,
    /// CG exited early through the `pᵀLp ≤ 0` guard (indefinite or
    /// non-finite curvature — numerically exhausted). The reported
    /// residual is the true residual of the returned iterate, never a
    /// stale default.
    pub breakdown: bool,
    /// A caller-supplied warm-start guess was accepted (its residual beat
    /// the zero start).
    pub warm_start: bool,
}

/// A Jacobi preconditioner (inverse grounded-Laplacian diagonal) built
/// for one diagonal `d`, together with `d` gathered into the solver's
/// adjacency order for the matvec; cheap to clone and share across
/// threads.
#[derive(Clone, Debug)]
pub struct Precond {
    minv: Arc<Vec<f64>>,
    /// `d` at every adjacency slot (see [`Adjacency`]); zero on the
    /// ground vertex's slots, which the matvec never reads.
    w: Arc<Vec<f64>>,
}

/// Per-call knobs for [`LaplacianSolver::solve_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveParams<'a> {
    /// Override the solver's construction-time options (per-phase
    /// adaptive tolerance); `None` uses the defaults.
    pub opts: Option<SolverOpts>,
    /// Warm-start guess (usually the previous Newton step's solution).
    /// Ignored unless it has length `n` and strictly beats the zero
    /// start.
    pub guess: Option<&'a [f64]>,
    /// Generation number of `d` for the preconditioner cache: callers
    /// that solve repeatedly against an unchanged `d` pass the same
    /// generation and skip the rebuild. `None` bypasses the cache.
    pub d_gen: Option<u64>,
    /// Buffer pool to draw CG scratch vectors from; `None` uses the
    /// solver's own arena. Callers running a whole IPM pass one
    /// [`Workspace`] so every solve (and the returned solution vectors,
    /// once handed back with [`Workspace::give`]) recycles through a
    /// single pool.
    pub ws: Option<&'a Workspace>,
}

/// One right-hand side of a batched solve.
#[derive(Clone, Copy, Debug)]
pub struct RhsSpec<'a> {
    /// The right-hand side vector (`b[ground]` is ignored).
    pub b: &'a [f64],
    /// Optional warm-start guess for this RHS.
    pub guess: Option<&'a [f64]>,
}

/// A reusable solver for systems `AᵀDA x = b` over a fixed graph.
///
/// The diagonal `D` may change between solves ([`LaplacianSolver::solve`]
/// takes it per call); the graph and grounded vertex are fixed. The
/// solver is `Sync` — batched solves share it across pool threads.
pub struct LaplacianSolver {
    graph: DiGraph,
    ground: usize,
    opts: SolverOpts,
    /// Fingerprint of `(n, m, ground, edge set)`; part of the
    /// preconditioner cache key so a topology change (via
    /// [`LaplacianSolver::retarget`]) can never serve a stale diagonal,
    /// even when the caller reuses a `d_gen`.
    topo_fp: u64,
    /// The graph in the matvec's adjacency order.
    adj: Adjacency,
    /// `(topo_fp, d_gen, preconditioner)` of the most recently built
    /// keyed preconditioner.
    cache: Mutex<Option<(u64, u64, Precond)>>,
    /// Fallback buffer pool for callers that don't supply
    /// [`SolveParams::ws`]; shared across the fork-join branches of
    /// [`LaplacianSolver::solve_batch`].
    ws: Workspace,
}

/// The graph in the order the fused Laplacian matvec
/// ([`incidence::apply_laplacian_fused_into`]) sums in: each vertex's
/// in-edges, then its out-edges. Built once per topology.
#[derive(Debug)]
struct Adjacency {
    /// Vertex `v` owns slots `off[v]..off[v + 1]`.
    off: Vec<usize>,
    /// The other endpoint at each slot: an in-edge's tail, an out-edge's
    /// head.
    nbr: Vec<u32>,
}

impl Adjacency {
    fn new(g: &DiGraph) -> Self {
        assert!(
            g.n() <= u32::MAX as usize,
            "graph too large for 32-bit vertex ids"
        );
        let mut off = Vec::with_capacity(g.n() + 1);
        let mut nbr = Vec::with_capacity(2 * g.m());
        off.push(0);
        for v in 0..g.n() {
            let ins = g.in_edges(v).iter().map(|&e| g.tail(e));
            let outs = g.out_edges(v).iter().map(|&e| g.head(e));
            nbr.extend(ins.chain(outs).map(|u| u as u32));
            off.push(nbr.len());
        }
        Adjacency { off, nbr }
    }
}

/// FNV-1a over the structural identity of a grounded graph: `n`, `m`,
/// `ground`, and the full edge list in storage order.
fn topology_fingerprint(graph: &DiGraph, ground: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(graph.n() as u64);
    mix(graph.m() as u64);
    mix(ground as u64);
    for &(u, v) in graph.edges() {
        mix(u as u64);
        mix(v as u64);
    }
    h
}

/// Lane-interleaved CG state is one buffer of `FIELDS` fields of `n·L`
/// values: the iterate, residual, preconditioned residual, search
/// direction, best iterate and matvec output, in that order. One buffer,
/// so a solve checks out one pool buffer of its own size class.
const FIELDS: usize = 6;
/// Field index of the best iterate.
const BEST: usize = 4;

/// The `L` lanes of vertex `v` in a lane-interleaved buffer.
#[inline]
fn lane<const L: usize>(buf: &[f64], v: usize) -> &[f64; L] {
    buf[v * L..v * L + L]
        .try_into()
        .expect("a lane slice has L elements")
}

/// One pass over the vertices of lane-interleaved buffers:
/// `f(v, views)` gets vertex `v`'s lanes of every buffer in `bufs` and
/// returns a per-lane term, folded per lane from `init` in vertex order.
/// Below the sequential cutoff that is one loop — the order of the
/// scalar primitives' sequential paths. Above it, blocks of
/// [`SWEEP_BLOCK`] vertices run on the pool and their partial sums fold
/// in block order.
fn sweep<const L: usize, const K: usize>(
    n: usize,
    bufs: [&mut [f64]; K],
    init: f64,
    f: impl Fn(usize, [&mut [f64; L]; K]) -> [f64; L] + Sync,
) -> [f64; L] {
    if n < seq_cutoff() {
        return sweep_range(0..n, bufs, init, &f);
    }
    let mut rest = bufs;
    let mut blocks = Vec::with_capacity(n.div_ceil(SWEEP_BLOCK));
    for v0 in (0..n).step_by(SWEEP_BLOCK) {
        let len = SWEEP_BLOCK.min(n - v0) * L;
        let head: [&mut [f64]; K] = std::array::from_fn(|i| {
            let (h, t) = std::mem::take(&mut rest[i]).split_at_mut(len);
            rest[i] = t;
            h
        });
        blocks.push((v0..(v0 + SWEEP_BLOCK).min(n), head));
    }
    let partials: Vec<[f64; L]> = blocks
        .into_par_iter()
        .with_min_len(1)
        .map(|(range, bufs)| sweep_range(range, bufs, init, &f))
        .collect();
    partials.into_iter().fold([init; L], |mut acc, part| {
        for j in 0..L {
            acc[j] += part[j];
        }
        acc
    })
}

fn sweep_range<const L: usize, const K: usize>(
    range: std::ops::Range<usize>,
    bufs: [&mut [f64]; K],
    init: f64,
    f: &impl Fn(usize, [&mut [f64; L]; K]) -> [f64; L],
) -> [f64; L] {
    let mut acc = [init; L];
    let mut rows = bufs.map(|b| b.chunks_exact_mut(L));
    for v in range {
        let views = rows
            .each_mut()
            .map(|row| row.next().expect("buffers cover the range"))
            .map(|x| <&mut [f64; L]>::try_from(x).expect("chunks have L elements"));
        let term = f(v, views);
        for j in 0..L {
            acc[j] += term[j];
        }
    }
    acc
}

/// Split lane-interleaved CG state into its [`FIELDS`] buffers.
fn fields(st: &mut [f64]) -> [&mut [f64]; FIELDS] {
    let nl = st.len() / FIELDS;
    let mut chunks = st.chunks_exact_mut(nl);
    std::array::from_fn(|_| chunks.next().expect("state has FIELDS fields"))
}

/// The outcome of one lane-blocked CG run: every lane's returned
/// iterate (still interleaved), stats, and charged cost.
pub(crate) struct LaneRun<const L: usize> {
    st: Vec<f64>,
    n: usize,
    /// Offset in `st` of the field holding each lane's returned iterate.
    pick: [usize; L],
    /// Per-lane solve statistics.
    pub(crate) stats: [SolveStats; L],
    /// Per-lane charged cost, not yet charged to any tracker.
    pub(crate) cost: [Cost; L],
}

impl<const L: usize> LaneRun<L> {
    /// Lane `j`'s solution at vertex `v`.
    #[inline]
    pub(crate) fn at(&self, v: usize, j: usize) -> f64 {
        self.st[self.pick[j] + v * L + j]
    }

    /// Lane `j`'s solution as a vector checked out of `ws`.
    fn solution(&self, t: &mut Tracker, ws: &Workspace, j: usize) -> Vec<f64> {
        let mut x = ws.take(t, self.n);
        for (v, xv) in x.iter_mut().enumerate() {
            *xv = self.at(v, j);
        }
        x
    }

    /// Hand the state buffer back to `ws`.
    pub(crate) fn release(self, ws: &Workspace) {
        ws.give(self.st);
    }
}

impl LaplacianSolver {
    /// Create a solver for `graph`, grounding vertex `ground` (its
    /// coordinate is pinned to 0, equivalent to deleting that column of
    /// `A`; the graph must be connected for the system to be PD).
    pub fn new(graph: DiGraph, ground: usize, opts: SolverOpts) -> Self {
        assert!(ground < graph.n());
        LaplacianSolver {
            topo_fp: topology_fingerprint(&graph, ground),
            adj: Adjacency::new(&graph),
            graph,
            ground,
            opts,
            cache: Mutex::new(None),
            ws: Workspace::new(),
        }
    }

    /// Point the solver at a new graph (and ground), keeping the buffer
    /// pool, options, and cache storage. The topology fingerprint is
    /// recomputed, so any cached preconditioner keyed to the old graph
    /// is unreachable — callers may keep reusing their `d_gen` scheme
    /// across a retarget without risk of a stale Jacobi diagonal.
    pub fn retarget(&mut self, graph: DiGraph, ground: usize) {
        assert!(ground < graph.n());
        self.topo_fp = topology_fingerprint(&graph, ground);
        self.adj = Adjacency::new(&graph);
        self.graph = graph;
        self.ground = ground;
    }

    /// The fingerprint of `(n, m, ground, edge set)` used in the
    /// preconditioner cache key.
    pub fn topology(&self) -> u64 {
        self.topo_fp
    }

    /// The solver's internal buffer pool (the arena used when a call
    /// does not supply [`SolveParams::ws`]). Hand solution vectors back
    /// with [`Workspace::give`] to keep steady-state solves
    /// allocation-free.
    pub fn workspace(&self) -> &Workspace {
        &self.ws
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The grounded vertex.
    pub fn ground(&self) -> usize {
        self.ground
    }

    /// Build (or fetch from cache) the Jacobi preconditioner for `d`.
    ///
    /// One vertex-parallel pass (on the pool above the sequential
    /// cutoff, matching the charged `par_flat` cost) copies each vertex's
    /// weights into its adjacency slots — in-edges, then out-edges — sums
    /// them in that order and inverts the sum.
    pub fn precondition(&self, t: &mut Tracker, d: &[f64], d_gen: Option<u64>) -> Precond {
        assert_eq!(d.len(), self.graph.m());
        if let Some(gen) = d_gen {
            let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            if let Some((cached_fp, cached_gen, pc)) = cache.as_ref() {
                if *cached_fp == self.topo_fp && *cached_gen == gen {
                    t.counter("solver.precond_hits", 1);
                    return pc.clone();
                }
            }
        }
        debug_assert!(
            d.iter().all(|&w| w > 0.0),
            "D must be positive: first bad {:?}",
            d.iter().enumerate().find(|(_, &w)| w <= 0.0 || w.is_nan())
        );
        t.counter("solver.precond_builds", 1);
        let (g, n, ground) = (&self.graph, self.graph.n(), self.ground);
        let off = &self.adj.off;
        // Edge gather (every edge contributes to both endpoints)…
        t.charge(Cost::par_flat(g.m() as u64));
        // …fused with the vertex-parallel inversion: each vertex copies
        // its slots' weights and sums them in slot order. The matvec never
        // reads the ground row, so its slots stay zero.
        t.charge_par_flat(n as u64);
        let row = |v: usize, wv: &mut [f64]| {
            if v == ground {
                return 1.0;
            }
            let mut s = 0.0;
            let edges = g.in_edges(v).iter().chain(g.out_edges(v));
            for (wk, &e) in wv.iter_mut().zip(edges) {
                *wk = d[e];
                s += *wk;
            }
            1.0 / s.max(1e-300)
        };
        let mut w = vec![0.0; off[n]];
        let mut minv = vec![0.0; n];
        if n < seq_cutoff() {
            for (v, mv) in minv.iter_mut().enumerate() {
                *mv = row(v, &mut w[off[v]..off[v + 1]]);
            }
        } else {
            let mut rows = Vec::with_capacity(n);
            let mut rest = &mut w[..];
            for v in 0..n {
                let (head, tail) = rest.split_at_mut(off[v + 1] - off[v]);
                rows.push(head);
                rest = tail;
            }
            minv.par_iter_mut()
                .zip(rows.into_par_iter())
                .enumerate()
                .for_each(|(v, (mv, wv))| *mv = row(v, wv));
        }
        let pc = Precond {
            minv: Arc::new(minv),
            w: Arc::new(w),
        };
        if let Some(gen) = d_gen {
            *self.cache.lock().unwrap_or_else(|e| e.into_inner()) =
                Some((self.topo_fp, gen, pc.clone()));
        }
        pc
    }

    /// Solve `AᵀDA x = b` to the configured tolerance. `b[ground]` is
    /// ignored (forced to 0). Returns the solution (with `x[ground] = 0`)
    /// and stats.
    ///
    /// Profiled under the `linalg/solve` span; each call feeds the
    /// `solver.solves` counter and the `solver.cg_iterations` histogram.
    pub fn solve(&self, t: &mut Tracker, d: &[f64], b: &[f64]) -> (Vec<f64>, SolveStats) {
        self.solve_with(t, d, b, &SolveParams::default())
    }

    /// [`LaplacianSolver::solve`] with per-call parameters: adaptive
    /// tolerance, warm-start guess, and preconditioner-cache generation.
    pub fn solve_with(
        &self,
        t: &mut Tracker,
        d: &[f64],
        b: &[f64],
        params: &SolveParams<'_>,
    ) -> (Vec<f64>, SolveStats) {
        t.span("linalg/solve", |t| {
            let _trace = pmcf_obs::trace_scope("linalg/solve");
            let opts = params.opts.unwrap_or(self.opts);
            let ws = params.ws.unwrap_or(&self.ws);
            let pc = self.precondition(t, d, params.d_gen);
            let spec = RhsSpec {
                b,
                guess: params.guess,
            };
            let (x, stats) = self.solve_one(t, &pc, &spec, &opts, ws);
            self.record_solve(t, &stats);
            pmcf_obs::emit_with("solver.solve", || {
                vec![
                    ("n", self.graph.n().into()),
                    ("m", self.graph.m().into()),
                    ("iterations", (stats.iterations as u64).into()),
                    ("rel_residual", stats.rel_residual.into()),
                    ("warm_start", stats.warm_start.into()),
                    ("breakdown", stats.breakdown.into()),
                    ("tol", opts.tol.into()),
                ]
            });
            (x, stats)
        })
    }

    /// Solve several right-hand sides against one diagonal `d`.
    ///
    /// The preconditioner is built once; the right-hand sides run in lane
    /// groups that are independent parallel branches (charged as one
    /// `par` branch per right-hand side, and really executed on the pool
    /// when it has threads).
    pub fn solve_batch(
        &self,
        t: &mut Tracker,
        d: &[f64],
        rhss: &[RhsSpec<'_>],
        opts: Option<SolverOpts>,
    ) -> Vec<(Vec<f64>, SolveStats)> {
        self.solve_batch_with(t, d, rhss, opts, None)
    }

    /// [`LaplacianSolver::solve_batch`] drawing scratch (and the returned
    /// solution vectors) from a caller-supplied [`Workspace`] instead of
    /// the solver's internal arena.
    pub fn solve_batch_with(
        &self,
        t: &mut Tracker,
        d: &[f64],
        rhss: &[RhsSpec<'_>],
        opts: Option<SolverOpts>,
        ws: Option<&Workspace>,
    ) -> Vec<(Vec<f64>, SolveStats)> {
        self.solve_batch_keyed(t, d, rhss, opts, None, ws)
    }

    /// [`LaplacianSolver::solve_batch_with`] plus a preconditioner-cache
    /// generation for `d` ([`SolveParams::d_gen`] semantics): callers that
    /// batch-solve repeatedly against a slowly-changing diagonal pass the
    /// same generation while `d` is unchanged and skip the Jacobi rebuild
    /// entirely.
    pub fn solve_batch_keyed(
        &self,
        t: &mut Tracker,
        d: &[f64],
        rhss: &[RhsSpec<'_>],
        opts: Option<SolverOpts>,
        d_gen: Option<u64>,
        ws: Option<&Workspace>,
    ) -> Vec<(Vec<f64>, SolveStats)> {
        let n = self.graph.n();
        for spec in rhss {
            assert_eq!(spec.b.len(), n);
        }
        let ws = ws.unwrap_or(&self.ws);
        let runs = self.solve_lanes(
            t,
            d,
            rhss.len(),
            |v, i| rhss[i].b[v],
            |i| rhss[i].guess,
            opts,
            d_gen,
            ws,
        );
        let mut out = Vec::with_capacity(rhss.len());
        for run in runs {
            let k = (rhss.len() - out.len()).min(LANES);
            for j in 0..k {
                out.push((run.solution(t, ws, j), run.stats[j]));
            }
            run.release(ws);
        }
        out
    }

    /// The batched solve behind [`LaplacianSolver::solve_batch_keyed`]
    /// and the leverage estimator: `k` right-hand sides `rhs(v, i)`,
    /// `i < k`, with warm guesses `guess(i)`, solved in lane groups of
    /// [`LANES`] under the `linalg/solve-batch` span. Right-hand side `i`
    /// is lane `i % LANES` of run `i / LANES`. Each group is one
    /// [`Tracker::parallel`] branch charged the `par` fold of its lanes'
    /// costs, so the total is that of `k` single-lane branches.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_lanes<'g>(
        &self,
        t: &mut Tracker,
        d: &[f64],
        k: usize,
        rhs: impl Fn(usize, usize) -> f64 + Sync,
        guess: impl Fn(usize) -> Option<&'g [f64]> + Sync,
        opts: Option<SolverOpts>,
        d_gen: Option<u64>,
        ws: &Workspace,
    ) -> Vec<LaneRun<LANES>> {
        t.span("linalg/solve-batch", |t| {
            let _trace = pmcf_obs::trace_scope("linalg/solve-batch");
            let opts = opts.unwrap_or(self.opts);
            let pc = self.precondition(t, d, d_gen);
            // All groups draw scratch from one shared arena — the pool is
            // internally synchronized, so concurrent checkouts never alias
            // and every group's buffers recycle.
            let runs = t.parallel(k.div_ceil(LANES), |gi, t| {
                let base = gi * LANES;
                let lanes = (k - base).min(LANES);
                let guesses =
                    std::array::from_fn(|j| if j < lanes { guess(base + j) } else { None });
                let run =
                    self.cg::<LANES>(t, &pc, lanes, |v, j| rhs(v, base + j), guesses, &opts, ws);
                t.charge(run.cost[..lanes].iter().fold(Cost::ZERO, |a, &c| a.par(c)));
                run
            });
            let mut total_iters = 0u64;
            let mut warm_hits = 0u64;
            for i in 0..k {
                let stats = &runs[i / LANES].stats[i % LANES];
                self.record_solve(t, stats);
                total_iters += stats.iterations as u64;
                warm_hits += stats.warm_start as u64;
            }
            pmcf_obs::emit_with("solver.batch", || {
                vec![
                    ("n", self.graph.n().into()),
                    ("m", self.graph.m().into()),
                    ("rhs", k.into()),
                    ("iterations", total_iters.into()),
                    ("warm_start_hits", warm_hits.into()),
                    ("tol", opts.tol.into()),
                ]
            });
            runs
        })
    }

    /// Two-RHS special case of [`LaplacianSolver::solve_batch_keyed`]
    /// that never allocates once the workspace is warm: the IPM's Newton
    /// step solves exactly two systems (`dy` and `δ_c` correction)
    /// against one diagonal every iteration, and the general batch path
    /// pays per-call `Vec`s for branch trackers and results. Each half is
    /// a one-lane solve on its own fork. Charges, span tree, counters,
    /// and the `solver.batch` event are bit-identical to
    /// `solve_batch_keyed` with the same two specs.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    pub fn solve_pair_keyed(
        &self,
        t: &mut Tracker,
        d: &[f64],
        ra: &RhsSpec<'_>,
        rb: &RhsSpec<'_>,
        opts: Option<SolverOpts>,
        d_gen: Option<u64>,
        ws: Option<&Workspace>,
    ) -> ((Vec<f64>, SolveStats), (Vec<f64>, SolveStats)) {
        t.span("linalg/solve-batch", |t| {
            let _trace = pmcf_obs::trace_scope("linalg/solve-batch");
            let opts = opts.unwrap_or(self.opts);
            let ws = ws.unwrap_or(&self.ws);
            let pc = self.precondition(t, d, d_gen);
            // par_join charges exactly as a two-lane group's `par` fold.
            let (a, b) = t.par_join(
                |t| self.solve_one(t, &pc, ra, &opts, ws),
                |t| self.solve_one(t, &pc, rb, &opts, ws),
            );
            let mut total_iters = 0u64;
            let mut warm_hits = 0u64;
            for (_, stats) in [&a, &b] {
                self.record_solve(t, stats);
                total_iters += stats.iterations as u64;
                warm_hits += stats.warm_start as u64;
            }
            pmcf_obs::emit_with("solver.batch", || {
                vec![
                    ("n", self.graph.n().into()),
                    ("m", self.graph.m().into()),
                    ("rhs", 2usize.into()),
                    ("iterations", total_iters.into()),
                    ("warm_start_hits", warm_hits.into()),
                    ("tol", opts.tol.into()),
                ]
            });
            (a, b)
        })
    }

    fn record_solve(&self, t: &mut Tracker, stats: &SolveStats) {
        t.counter("solver.solves", 1);
        t.counter("solver.cg_iterations_total", stats.iterations as u64);
        t.observe("solver.cg_iterations", stats.iterations as u64);
        if stats.warm_start {
            t.counter("solver.warm_start_hits", 1);
        }
        if stats.breakdown {
            t.counter("solver.breakdowns", 1);
        }
    }

    /// One right-hand side through the one-lane kernel, its cost charged
    /// to `t`.
    fn solve_one(
        &self,
        t: &mut Tracker,
        pc: &Precond,
        spec: &RhsSpec<'_>,
        opts: &SolverOpts,
        ws: &Workspace,
    ) -> (Vec<f64>, SolveStats) {
        assert_eq!(spec.b.len(), self.graph.n());
        let run = self.cg::<1>(t, pc, 1, |v, _| spec.b[v], [spec.guess], opts, ws);
        t.charge(run.cost[0]);
        let x = run.solution(t, ws, 0);
        let stats = run.stats[0];
        run.release(ws);
        (x, stats)
    }

    /// `out ← AᵀDA·y` on `L` interleaved lanes, one pass over the
    /// adjacency snapshot (`w` is [`Precond`]'s gathered `d`), returning
    /// per lane `Σ_v y_v·out_v` folded from −0.0 as `Iterator::sum` does
    /// (the CG curvature `pᵀLp`, fused into the matvec).
    ///
    /// Bit-identical per lane to [`incidence::apply_laplacian_fused_into`]:
    /// it sums the same terms in the same order, writing an out-edge's
    /// `−d·(y_head − y_v)` as `+d·(y_v − y_head)`. Negation is exact and
    /// the accumulator starts at +0, which no sum of these terms turns
    /// into −0, so the two forms agree to the bit.
    fn lane_matvec<const L: usize>(&self, w: &[f64], y: &[f64], out: &mut [f64]) -> [f64; L] {
        let (off, nbr) = (&self.adj.off, &self.adj.nbr);
        let ground = self.ground;
        sweep::<L, 1>(self.graph.n(), [out], -0.0, |v, [o]| {
            let yv = lane::<L>(y, v);
            let mut acc = [0.0; L];
            if v != ground {
                let slots = off[v]..off[v + 1];
                for (&wk, &u) in w[slots.clone()].iter().zip(&nbr[slots]) {
                    let yu = lane::<L>(y, u as usize);
                    for j in 0..L {
                        acc[j] += wk * (yv[j] - yu[j]);
                    }
                }
            }
            *o = acc;
            std::array::from_fn(|j| yv[j] * acc[j])
        })
    }

    /// Jacobi-preconditioned CG on `AᵀDA x = b` (grounded) for the first
    /// `k ≤ L` of `L` interleaved lanes; lane `j`'s right-hand side is
    /// `rhs(·, j)` and its warm-start guess `guess[j]`. Lanes past `k`
    /// are zero padding; callers charge only the first `k` costs.
    ///
    /// Per lane this is the scalar algorithm: start from the zero vector
    /// (or the optimally scaled guess when it strictly beats zero), and
    /// return the best iterate encountered — on clean convergence the
    /// last one, on iteration overrun or `pᵀLp ≤ 0` breakdown whichever
    /// had the smallest relative residual, which `stats.rel_residual`
    /// then describes. Every lane charges, in its own [`Cost`], exactly
    /// what the scalar primitives charge: the Laplacian matvec, dots,
    /// axpys and the best-iterate copy. The whole state, matvec output
    /// included, is one buffer checked out of `ws`, so a warm pool makes
    /// the call allocation-free.
    #[allow(clippy::too_many_arguments)]
    fn cg<const L: usize>(
        &self,
        t: &mut Tracker,
        pc: &Precond,
        k: usize,
        rhs: impl Fn(usize, usize) -> f64 + Sync,
        guess: [Option<&[f64]>; L],
        opts: &SolverOpts,
        ws: &Workspace,
    ) -> LaneRun<L> {
        let (g, n, ground) = (&self.graph, self.graph.n(), self.ground);
        let (minv, w): (&[f64], &[f64]) = (&pc.minv, &pc.w);
        let flat = Cost::par_flat(n as u64);
        let dot = flat.par(Cost::reduce(n as u64));
        let matvec = incidence::laplacian_cost(g);
        let nl = n * L;
        let mut st = ws.take(t, FIELDS * nl);
        let [x, r, z, p, best, ap] = fields(&mut st);

        // b (held in `z` until the first preconditioner apply) and r = b.
        let bb2 = sweep::<L, _>(n, [&mut *z, &mut *r], -0.0, |v, [zv, rv]| {
            for j in 0..L {
                zv[j] = if v == ground || j >= k {
                    0.0
                } else {
                    rhs(v, j)
                };
                rv[j] = zv[j];
            }
            std::array::from_fn(|j| zv[j] * zv[j])
        });
        let mut cost = [dot; L];
        let bnorm = bb2.map(f64::sqrt);
        // A zero right-hand side returns x = 0 at once, guess or not.
        let mut act: [bool; L] = std::array::from_fn(|j| j < k && bnorm[j] != 0.0);
        let zero = act.map(|a| !a);
        let mut stats = [SolveStats::default(); L];
        let mut rel = [1.0; L];

        // Warm start: lane j starts from c·x₀ with c minimizing
        // ‖b − c·Lx₀‖₂, accepted only if it strictly beats x = 0. The
        // guess *direction* is what carries across Newton steps; its
        // magnitude often does not (corrector directions shrink
        // quadratically).
        let guess: [Option<&[f64]>; L] =
            std::array::from_fn(|j| guess[j].filter(|g0| act[j] && g0.len() == n));
        let warm = guess.map(|g0| g0.is_some());
        if warm.contains(&true) {
            sweep::<L, _>(n, [&mut *x], 0.0, |v, [xv]| {
                for j in 0..L {
                    if let Some(g0) = guess[j] {
                        xv[j] = if v == ground { 0.0 } else { g0[v] };
                    }
                }
                [0.0; L]
            });
            let lx = &mut *ap;
            self.lane_matvec::<L>(w, x, lx);
            let lx: &[f64] = lx;
            let num = sweep::<L, _>(n, [], -0.0, |v, []| {
                let (l, b) = (lane::<L>(lx, v), lane::<L>(z, v));
                std::array::from_fn(|j| l[j] * b[j])
            });
            let den = sweep::<L, _>(n, [], -0.0, |v, []| {
                let l = lane::<L>(lx, v);
                std::array::from_fn(|j| l[j] * l[j])
            });
            let c: [f64; L] = std::array::from_fn(|j| {
                if den[j] > 0.0 && num[j].is_finite() {
                    num[j] / den[j]
                } else {
                    0.0
                }
            });
            let neg_c = c.map(|c| -c);
            // x ← c·x₀; r ← b − c·Lx₀ and its norm in one pass.
            let rr = sweep::<L, _>(n, [&mut *x, &mut *r], 0.0, |v, [xv, rv]| {
                let (l, b) = (lane::<L>(lx, v), lane::<L>(z, v));
                for j in 0..L {
                    if warm[j] {
                        xv[j] *= c[j];
                        rv[j] = b[j] + neg_c[j] * l[j];
                    }
                }
                std::array::from_fn(|j| rv[j] * rv[j])
            });
            let mut reject = [false; L];
            for j in (0..L).filter(|&j| warm[j]) {
                cost[j] += matvec + dot + dot + flat + flat + dot;
                let rnorm = rr[j].sqrt();
                if rnorm.is_finite() && rnorm < bnorm[j] {
                    stats[j].warm_start = true;
                    rel[j] = rnorm / bnorm[j];
                } else {
                    reject[j] = true;
                }
            }
            if reject.contains(&true) {
                sweep::<L, _>(n, [&mut *x, &mut *r], 0.0, |v, [xv, rv]| {
                    let b = lane::<L>(z, v);
                    for j in (0..L).filter(|&j| reject[j]) {
                        xv[j] = 0.0;
                        rv[j] = b[j];
                    }
                    [0.0; L]
                });
            }
        }
        for j in (0..L).filter(|&j| act[j]) {
            stats[j].rel_residual = rel[j];
            cost[j] += flat + dot;
        }

        // z = M⁻¹r, ⟨r, z⟩; p = z; best = x.
        let mut rz = sweep::<L, _>(n, [&mut *z, &mut *p, &mut *best], 0.0, |v, [zv, pv, bv]| {
            let (rv, xv, mv) = (lane::<L>(r, v), lane::<L>(x, v), minv[v]);
            for j in 0..L {
                zv[j] = rv[j] * mv;
                pv[j] = zv[j];
                bv[j] = xv[j];
            }
            std::array::from_fn(|j| rv[j] * zv[j])
        });
        let mut best_rel = rel;

        // A stopped lane keeps its x (and best); its r, z and p are dead,
        // so only the x update is masked: the other passes update every
        // lane, a stopped one with α = β = 0, and nothing reads the result.
        for it in 0..opts.max_iter {
            if !act.contains(&true) {
                break;
            }
            let pap = self.lane_matvec::<L>(w, p, ap);
            let mut alpha = [0.0; L];
            let live = act;
            for j in (0..L).filter(|&j| live[j]) {
                cost[j] += matvec + dot;
                if pap[j] <= 0.0 || !pap[j].is_finite() {
                    // `stats.rel_residual` already holds the true residual
                    // of the current iterate — no stale default escapes.
                    stats[j].breakdown = true;
                    act[j] = false;
                } else {
                    alpha[j] = rz[j] / pap[j];
                }
            }
            let neg_alpha = alpha.map(|a| -a);
            // x += αp; r −= α·Ap and ‖r‖² in one pass.
            let ap: &[f64] = ap;
            let rr = sweep::<L, _>(n, [&mut *x, &mut *r], 0.0, |v, [xv, rv]| {
                let (pv, apv) = (lane::<L>(p, v), lane::<L>(ap, v));
                for j in 0..L {
                    let xn = xv[j] + alpha[j] * pv[j];
                    xv[j] = if act[j] { xn } else { xv[j] };
                    rv[j] += neg_alpha[j] * apv[j];
                }
                std::array::from_fn(|j| rv[j] * rv[j])
            });
            let mut improved = [false; L];
            let live = act;
            for j in (0..L).filter(|&j| live[j]) {
                cost[j] += flat + flat + dot;
                rel[j] = rr[j].sqrt() / bnorm[j];
                stats[j].iterations = it + 1;
                stats[j].rel_residual = rel[j];
                if rel[j] < best_rel[j] {
                    best_rel[j] = rel[j];
                    improved[j] = true;
                    cost[j] += flat;
                }
                if rel[j] <= opts.tol {
                    act[j] = false;
                }
            }
            if !act.contains(&true) && !improved.contains(&true) {
                break;
            }
            // best = x where improved; z = M⁻¹r and ⟨r, z⟩.
            let any_improved = improved.contains(&true);
            let rz_new = sweep::<L, _>(n, [&mut *z, &mut *best], 0.0, |v, [zv, bv]| {
                let (rv, mv) = (lane::<L>(r, v), minv[v]);
                for j in 0..L {
                    zv[j] = rv[j] * mv;
                }
                if any_improved {
                    let xv = lane::<L>(x, v);
                    for j in 0..L {
                        bv[j] = if improved[j] { xv[j] } else { bv[j] };
                    }
                }
                std::array::from_fn(|j| rv[j] * zv[j])
            });
            let mut beta = [0.0; L];
            for j in (0..L).filter(|&j| act[j]) {
                cost[j] += flat + dot + flat;
                beta[j] = rz_new[j] / rz[j];
                rz[j] = rz_new[j];
            }
            if !act.contains(&true) {
                break;
            }
            // p = z + βp.
            sweep::<L, _>(n, [&mut *p], 0.0, |v, [pv]| {
                let zv = lane::<L>(z, v);
                for j in 0..L {
                    pv[j] = zv[j] + beta[j] * pv[j];
                }
                [0.0; L]
            });
        }

        // Non-monotone exit (overrun or breakdown): hand back the best
        // iterate seen, with its residual.
        let mut pick = [0; L];
        for j in (0..L).filter(|&j| !zero[j]) {
            if stats[j].rel_residual > best_rel[j] {
                pick[j] = BEST * nl;
                stats[j].rel_residual = best_rel[j];
            }
            st[pick[j] + ground * L + j] = 0.0;
        }
        LaneRun {
            st,
            n,
            pick,
            stats,
            cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use pmcf_graph::generators;
    use pmcf_graph::incidence::dense_grounded_laplacian;
    use pmcf_pram::{primitives as pp, ParMode};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The scalar CG the lane kernel replaced, kept verbatim as the
    /// oracle: one right-hand side, the fused incidence matvec and the
    /// instrumented primitives, charging `t` as it goes.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn oracle_cg(
        s: &LaplacianSolver,
        t: &mut Tracker,
        d: &[f64],
        b: &[f64],
        minv: &[f64],
        guess: Option<&[f64]>,
        opts: &SolverOpts,
        ws: &Workspace,
    ) -> (Vec<f64>, SolveStats) {
        let n = s.graph.n();
        let g = &s.graph;
        assert_eq!(d.len(), g.m());
        assert_eq!(b.len(), n);

        let mut bb = ws.take_copy(t, b);
        bb[s.ground] = 0.0;
        let bnorm = pp::par_dot(t, &bb, &bb).sqrt();
        if bnorm == 0.0 {
            ws.give(bb);
            return (ws.take(t, n), SolveStats::default());
        }

        let mut stats = SolveStats::default();
        let mut x = ws.take(t, n);
        let mut r = ws.take_copy(t, &bb);
        let mut rel = 1.0;
        if let Some(g0) = guess.filter(|g0| g0.len() == n) {
            let mut xg = ws.take_copy(t, g0);
            xg[s.ground] = 0.0;
            let mut lx = ws.take(t, n);
            incidence::apply_laplacian_fused_into(t, g, d, s.ground, &xg, &mut lx);
            let num = pp::par_dot(t, &lx, &bb);
            let den = pp::par_dot(t, &lx, &lx);
            let c = if den > 0.0 && num.is_finite() {
                num / den
            } else {
                0.0
            };
            pp::par_scale(t, c, &mut xg);
            let rnorm = pp::par_axpy_norm2(t, -c, &lx, &mut r).sqrt();
            ws.give(lx);
            if rnorm.is_finite() && rnorm < bnorm {
                stats.warm_start = true;
                rel = rnorm / bnorm;
                ws.give(std::mem::replace(&mut x, xg));
            } else {
                ws.give(xg);
                r.copy_from_slice(&bb);
            }
        }
        stats.rel_residual = rel;

        let mut z = ws.take(t, n);
        let mut rz = pp::par_hadamard_dot(t, &r, minv, &mut z);
        let mut p = ws.take_copy(t, &z);
        let mut ap = ws.take(t, n);
        let mut best_rel = rel;
        let mut best_x = ws.take_copy(t, &x);

        for it in 0..opts.max_iter {
            incidence::apply_laplacian_fused_into(t, g, d, s.ground, &p, &mut ap);
            let pap = pp::par_dot(t, &p, &ap);
            if pap <= 0.0 || !pap.is_finite() {
                stats.breakdown = true;
                break;
            }
            let alpha = rz / pap;
            pp::par_axpy(t, alpha, &p, &mut x);
            let rnorm = pp::par_axpy_norm2(t, -alpha, &ap, &mut r).sqrt();
            rel = rnorm / bnorm;
            stats.iterations = it + 1;
            stats.rel_residual = rel;
            if rel < best_rel {
                best_rel = rel;
                best_x.copy_from_slice(&x);
                t.charge_par_flat(n as u64);
            }
            if rel <= opts.tol {
                break;
            }
            let rz_new = pp::par_hadamard_dot(t, &r, minv, &mut z);
            let beta = rz_new / rz;
            rz = rz_new;
            pp::par_xpay(t, &z, beta, &mut p);
        }
        if stats.rel_residual > best_rel {
            std::mem::swap(&mut x, &mut best_x);
            stats.rel_residual = best_rel;
        }
        x[s.ground] = 0.0;
        for buf in [bb, r, z, p, ap, best_x] {
            ws.give(buf);
        }
        (x, stats)
    }

    fn check_solve(g: DiGraph, d: Vec<f64>, seed: u64) {
        let n = g.n();
        let ground = 0;
        let mut rng = SmallRng::seed_from_u64(seed);
        // random rhs orthogonal to nothing in particular; ground pinned
        let mut b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        b[ground] = 0.0;
        let solver = LaplacianSolver::new(g.clone(), ground, SolverOpts::default());
        let mut t = Tracker::new();
        let (x, stats) = solver.solve(&mut t, &d, &b);
        assert!(stats.rel_residual < 1e-8, "residual {}", stats.rel_residual);
        // compare against dense solve
        let l = dense_grounded_laplacian(&g, &d, ground);
        let xd = dense::solve(l, b).unwrap();
        for i in 0..n {
            assert!(
                (x[i] - xd[i]).abs() < 1e-6 * (1.0 + xd[i].abs()),
                "coord {i}: {} vs {}",
                x[i],
                xd[i]
            );
        }
    }

    #[test]
    fn matches_dense_on_small_random_graphs() {
        for seed in 0..5 {
            let g = generators::gnm_digraph(12, 40, seed);
            let mut rng = SmallRng::seed_from_u64(seed + 100);
            let d: Vec<f64> = (0..40).map(|_| rng.gen_range(0.1..10.0)).collect();
            check_solve(g, d, seed);
        }
    }

    #[test]
    fn handles_wide_weight_range() {
        let g = generators::gnm_digraph(10, 30, 2);
        let mut rng = SmallRng::seed_from_u64(7);
        let d: Vec<f64> = (0..30)
            .map(|_| 10f64.powf(rng.gen_range(-4.0..4.0)))
            .collect();
        let ground = 0;
        let mut b: Vec<f64> = (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect();
        b[ground] = 0.0;
        let solver = LaplacianSolver::new(g, ground, SolverOpts::default());
        let mut t = Tracker::new();
        let (_, stats) = solver.solve(&mut t, &d, &b);
        assert!(stats.rel_residual < 1e-7, "residual {}", stats.rel_residual);
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let g = generators::gnm_digraph(8, 20, 3);
        let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
        let mut t = Tracker::new();
        let (x, stats) = solver.solve(&mut t, &[1.0; 20], &[0.0; 8]);
        assert!(x.iter().all(|&v| v == 0.0));
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn work_scales_with_edges() {
        let mut works = Vec::new();
        for &(n, m) in &[(32usize, 128usize), (64, 512)] {
            let g = generators::gnm_digraph(n, m, 9);
            let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
            let mut t = Tracker::new();
            let mut b = vec![0.0; n];
            b[1] = 1.0;
            b[n - 1] = -1.0;
            let (_, _) = solver.solve(&mut t, &vec![1.0; m], &b);
            works.push(t.work());
        }
        assert!(works[1] > works[0], "more edges ⇒ more work");
    }

    /// Ill-conditioned instance + tiny iteration cap: CG's residual is
    /// not monotone here, so the last iterate can be strictly worse than
    /// the best one seen. The solver must return the best (satellite
    /// regression test for the unused-`best_rel` bug).
    #[test]
    fn overrun_returns_best_iterate() {
        let g = generators::gnm_digraph(24, 72, 11);
        let mut rng = SmallRng::seed_from_u64(13);
        // 12 orders of magnitude of conductance spread
        let d: Vec<f64> = (0..72)
            .map(|_| 10f64.powf(rng.gen_range(-6.0..6.0)))
            .collect();
        let mut b: Vec<f64> = (0..24).map(|_| rng.gen_range(-1.0..1.0)).collect();
        b[0] = 0.0;
        for cap in [1usize, 2, 3, 5, 8, 13, 21, 34] {
            let solver = LaplacianSolver::new(
                g.clone(),
                0,
                SolverOpts {
                    tol: 1e-14,
                    max_iter: cap,
                },
            );
            let mut t = Tracker::new();
            let (x, stats) = solver.solve(&mut t, &d, &b);
            // the reported residual describes the returned iterate…
            let lx = {
                let mut tt = Tracker::disabled();
                incidence::apply_laplacian(&mut tt, &g, &d, 0, &x)
            };
            let rnorm: f64 = lx
                .iter()
                .zip(&b)
                .map(|(a, bi)| (bi - a) * (bi - a))
                .sum::<f64>()
                .sqrt();
            let bnorm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
            let actual_rel = rnorm / bnorm;
            assert!(
                (actual_rel - stats.rel_residual).abs() <= 1e-9 + 1e-6 * actual_rel,
                "cap {cap}: reported {} vs recomputed {actual_rel}",
                stats.rel_residual
            );
            // …and never exceeds the zero start (best-iterate guarantee:
            // rel 1.0 is always a candidate).
            assert!(
                stats.rel_residual <= 1.0 + 1e-12,
                "cap {cap}: returned iterate worse than zero start"
            );
        }
    }

    /// Breakdown on the very first iteration must report the true
    /// residual, not the `Default` 0.0 masquerading as an exact solve.
    #[test]
    fn breakdown_reports_true_residual_and_flag() {
        let g = generators::gnm_digraph(10, 30, 5);
        // A non-finite weight forces pᵀLp to be NaN on iteration one.
        let mut d = vec![1.0f64; 30];
        d[0] = f64::INFINITY;
        let mut b = vec![0.0f64; 10];
        b[1] = 1.0;
        b[2] = -1.0;
        let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
        let mut t = Tracker::new();
        let (_, stats) = solver.solve(&mut t, &d, &b);
        assert!(stats.breakdown, "breakdown must be surfaced");
        assert!(
            stats.rel_residual > 0.0,
            "breakdown reported rel_residual {} — stale default",
            stats.rel_residual
        );
    }

    #[test]
    fn warm_start_from_exact_solution_converges_instantly() {
        let g = generators::gnm_digraph(12, 40, 21);
        let mut rng = SmallRng::seed_from_u64(22);
        let d: Vec<f64> = (0..40).map(|_| rng.gen_range(0.5..2.0)).collect();
        let mut b: Vec<f64> = (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect();
        b[0] = 0.0;
        let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
        let mut t = Tracker::new();
        let (x, cold) = solver.solve(&mut t, &d, &b);
        assert!(!cold.warm_start);
        let (_, warm) = solver.solve_with(
            &mut t,
            &d,
            &b,
            &SolveParams {
                guess: Some(&x),
                ..Default::default()
            },
        );
        assert!(warm.warm_start, "exact guess must be accepted");
        assert!(
            warm.iterations <= 1,
            "warm start from the solution took {} iterations",
            warm.iterations
        );
    }

    #[test]
    fn garbage_guess_is_rejected_not_harmful() {
        let g = generators::gnm_digraph(12, 40, 23);
        let d = vec![1.0f64; 40];
        let mut b = vec![0.0f64; 12];
        b[3] = 1.0;
        b[7] = -1.0;
        let garbage = vec![1e12f64; 12];
        let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
        let mut t = Tracker::new();
        let (x_cold, cold) = solver.solve(&mut t, &d, &b);
        let (x_warm, warm) = solver.solve_with(
            &mut t,
            &d,
            &b,
            &SolveParams {
                guess: Some(&garbage),
                ..Default::default()
            },
        );
        assert!(!warm.warm_start, "garbage guess must be rejected");
        assert_eq!(warm.iterations, cold.iterations);
        for (a, c) in x_warm.iter().zip(&x_cold) {
            assert!((a - c).abs() < 1e-9);
        }
    }

    #[test]
    fn batch_matches_individual_solves() {
        let g = generators::gnm_digraph(14, 48, 31);
        let mut rng = SmallRng::seed_from_u64(32);
        let d: Vec<f64> = (0..48).map(|_| rng.gen_range(0.2..4.0)).collect();
        let rhss: Vec<Vec<f64>> = (0..3)
            .map(|_| {
                let mut b: Vec<f64> = (0..14).map(|_| rng.gen_range(-1.0..1.0)).collect();
                b[0] = 0.0;
                b
            })
            .collect();
        let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
        let mut t = Tracker::new();
        let specs: Vec<RhsSpec<'_>> = rhss.iter().map(|b| RhsSpec { b, guess: None }).collect();
        let batch = solver.solve_batch(&mut t, &d, &specs, None);
        for (b, (xb, _)) in rhss.iter().zip(&batch) {
            let (xs, _) = solver.solve(&mut t, &d, b);
            for (a, c) in xb.iter().zip(&xs) {
                assert_eq!(a.to_bits(), c.to_bits(), "batch and single solve disagree");
            }
        }
    }

    #[test]
    fn precond_cache_hits_on_same_generation() {
        let g = generators::gnm_digraph(10, 30, 41);
        let d = vec![1.0f64; 30];
        let mut b = vec![0.0f64; 10];
        b[1] = 1.0;
        b[4] = -1.0;
        let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
        let mut t = Tracker::profiled();
        let params = SolveParams {
            d_gen: Some(7),
            ..Default::default()
        };
        let _ = solver.solve_with(&mut t, &d, &b, &params);
        let _ = solver.solve_with(&mut t, &d, &b, &params);
        let rep = t.profile_report().unwrap();
        assert_eq!(rep.counters["solver.precond_builds"], 1);
        assert_eq!(rep.counters["solver.precond_hits"], 1);
    }

    /// Regression test for the poisoned-cache bug: a solver retargeted
    /// to a *different* graph while the caller reuses the same `d_gen`
    /// must rebuild the preconditioner (topology is part of the key) and
    /// produce the same answer as a fresh solver on the new graph.
    #[test]
    fn retarget_with_reused_generation_rebuilds_preconditioner() {
        let ga = generators::gnm_digraph(10, 30, 43);
        // Same n and m, different edge set: the old key (n, m) alone —
        // or d_gen alone — would collide.
        let gb = generators::gnm_digraph(10, 30, 44);
        assert_ne!(ga.edges(), gb.edges());
        let d = vec![1.0f64; 30];
        let mut b = vec![0.0f64; 10];
        b[2] = 1.0;
        b[6] = -1.0;

        let mut solver = LaplacianSolver::new(ga, 0, SolverOpts::default());
        let mut t = Tracker::profiled();
        let params = SolveParams {
            d_gen: Some(7),
            ..Default::default()
        };
        let _ = solver.solve_with(&mut t, &d, &b, &params);
        let fp_a = solver.topology();
        solver.retarget(gb.clone(), 0);
        assert_ne!(fp_a, solver.topology(), "fingerprint must change");
        let (x_retargeted, _) = solver.solve_with(&mut t, &d, &b, &params);
        let rep = t.profile_report().unwrap();
        assert_eq!(
            rep.counters["solver.precond_builds"], 2,
            "stale preconditioner served across a topology change"
        );
        assert!(!rep.counters.contains_key("solver.precond_hits"));

        // The retargeted solve matches a fresh solver on the new graph.
        let fresh = LaplacianSolver::new(gb, 0, SolverOpts::default());
        let mut t2 = Tracker::new();
        let (x_fresh, _) = fresh.solve_with(&mut t2, &d, &b, &params);
        for (a, c) in x_retargeted.iter().zip(&x_fresh) {
            assert!((a - c).abs() < 1e-8, "retargeted {} vs fresh {}", a, c);
        }
    }

    fn stats_bits(s: &SolveStats) -> (usize, u64, bool, bool) {
        (
            s.iterations,
            s.rel_residual.to_bits(),
            s.breakdown,
            s.warm_start,
        )
    }

    /// A random instance for the lane-vs-oracle checks: a gnm graph with
    /// weights over six orders of magnitude (now and then one infinite
    /// weight, which breaks CG down), `k` right-hand sides (some zero,
    /// a few with a NaN entry), warm guesses that are exact, noisy and negated (accepted
    /// with a negative scale), zero or NaN (rejected) or huge, and a
    /// tolerance / iteration cap pair that is often tiny so the
    /// best-iterate return runs.
    #[allow(clippy::type_complexity)]
    fn lane_instance(
        seed: u64,
    ) -> (
        LaplacianSolver,
        Vec<f64>,
        Vec<Vec<f64>>,
        Vec<Option<Vec<f64>>>,
        SolverOpts,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(2..=64usize);
        let m = rng.gen_range(n..=4 * n);
        let g = generators::gnm_digraph(n, m, seed);
        let mut d: Vec<f64> = (0..m)
            .map(|_| 10f64.powf(rng.gen_range(-3.0..3.0)))
            .collect();
        if rng.gen_bool(0.1) {
            // a non-finite weight drives pᵀLp to NaN: the breakdown exit
            d[rng.gen_range(0..m)] = f64::INFINITY;
        }
        let ground = rng.gen_range(0..n);
        let k = rng.gen_range(1..=2 * LANES + 3);
        let rhss: Vec<Vec<f64>> = (0..k)
            .map(|_| {
                if rng.gen_bool(0.15) {
                    vec![0.0; n]
                } else {
                    let mut b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    if rng.gen_bool(0.05) {
                        // breaks down at once while the other lanes run on
                        b[rng.gen_range(0..n)] = f64::NAN;
                    }
                    b
                }
            })
            .collect();
        let solver = LaplacianSolver::new(g, ground, SolverOpts::default());
        let guesses: Vec<Option<Vec<f64>>> = rhss
            .iter()
            .map(|b| {
                let x = solver.solve(&mut Tracker::disabled(), &d, b).0;
                match rng.gen_range(0..6u32) {
                    0 => None,
                    1 => Some(x),
                    // accepted with c < 0: the guess's zeros scale to −0.0
                    2 => Some(
                        x.iter()
                            .map(|&v| {
                                if rng.gen_bool(0.25) {
                                    0.0
                                } else {
                                    -v * rng.gen_range(0.5..1.5)
                                }
                            })
                            .collect(),
                    ),
                    // rejected: no better than the zero start
                    3 => Some(vec![0.0; n]),
                    4 => Some(vec![f64::NAN; n]),
                    _ => Some(vec![1e12; n]),
                }
            })
            .collect();
        let opts = if rng.gen_bool(0.5) {
            SolverOpts {
                tol: 1e-14,
                max_iter: rng.gen_range(0..6),
            }
        } else {
            SolverOpts {
                tol: 10f64.powf(-rng.gen_range(2.0..12.0f64)),
                max_iter: 10_000,
            }
        };
        (solver, d, rhss, guesses, opts)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The lane kernel is bit-identical to the scalar CG: per
        /// right-hand side the solution bits and stats, and in total the
        /// charged work and depth of `k` oracle branches under
        /// `Tracker::parallel`, in both execution modes — through the
        /// batch path (groups of `LANES`, the last one partial) and the
        /// one-lane single-solve path.
        #[test]
        fn lane_kernel_matches_scalar_oracle(seed in 0u64..1_000_000) {
            let (solver, d, rhss, guesses, opts) = lane_instance(seed);
            let specs: Vec<RhsSpec<'_>> = rhss
                .iter()
                .zip(&guesses)
                .map(|(b, g0)| RhsSpec {
                    b,
                    guess: g0.as_deref(),
                })
                .collect();
            let ws = Workspace::new();
            let mut tb = Tracker::new();
            let batch = solver.solve_batch_keyed(&mut tb, &d, &specs, Some(opts), None, None);
            for mode in [ParMode::Sequential, ParMode::Forked] {
                let mut to = Tracker::new();
                let pc = solver.precondition(&mut to, &d, None);
                let oracle = to.parallel_in(mode, specs.len(), |i, t| {
                    oracle_cg(&solver, t, &d, specs[i].b, &pc.minv, specs[i].guess, &opts, &ws)
                });
                prop_assert_eq!((tb.work(), tb.depth()), (to.work(), to.depth()));
                for ((xb, sb), (xo, so)) in batch.iter().zip(&oracle) {
                    prop_assert_eq!(stats_bits(sb), stats_bits(so));
                    prop_assert_eq!(bits(xb), bits(xo));
                }
            }
            for spec in &specs {
                let params = SolveParams {
                    opts: Some(opts),
                    guess: spec.guess,
                    ..Default::default()
                };
                let mut ts = Tracker::new();
                let (xs, ss) = solver.solve_with(&mut ts, &d, spec.b, &params);
                let mut to = Tracker::new();
                let pc = solver.precondition(&mut to, &d, None);
                let (xo, so) =
                    oracle_cg(&solver, &mut to, &d, spec.b, &pc.minv, spec.guess, &opts, &ws);
                prop_assert_eq!((ts.work(), ts.depth()), (to.work(), to.depth()));
                prop_assert_eq!(stats_bits(&ss), stats_bits(&so));
                prop_assert_eq!(bits(&xs), bits(&xo));
            }
        }
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Above the sequential cutoff the sweeps run in fixed vertex blocks
    /// on the pool: a batch lane still equals its single solve to the
    /// bit, both converge, and a repeat gives the same bits.
    #[test]
    fn blocked_sweeps_agree_above_cutoff() {
        let n = seq_cutoff() + 300;
        let g = generators::gnm_digraph(n, 3 * n, 5);
        let mut rng = SmallRng::seed_from_u64(6);
        let d: Vec<f64> = (0..3 * n).map(|_| rng.gen_range(0.5..2.0)).collect();
        let rhss: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let specs: Vec<RhsSpec<'_>> = rhss.iter().map(|b| RhsSpec { b, guess: None }).collect();
        let solver = LaplacianSolver::new(g, 0, SolverOpts::default());
        let mut t = Tracker::new();
        let batch = solver.solve_batch(&mut t, &d, &specs, None);
        let again = solver.solve_batch(&mut t, &d, &specs, None);
        for ((b, (xb, sb)), (xa, _)) in rhss.iter().zip(&batch).zip(&again) {
            let (xs, ss) = solver.solve(&mut t, &d, b);
            assert!(sb.rel_residual <= 1e-10, "residual {}", sb.rel_residual);
            assert_eq!(stats_bits(sb), stats_bits(&ss));
            assert_eq!(bits(xb), bits(&xs));
            assert_eq!(bits(xb), bits(xa));
        }
    }

    /// The snapshot agrees to the bit with the graph-order kernels: its
    /// Jacobi diagonal with `d` summed over in-edges then out-edges, and
    /// its matvec with the fused incidence kernel on every lane, one
    /// lane or eight.
    #[test]
    fn snapshot_matches_fused_kernel_and_jacobi_sum() {
        for seed in 0..32u64 {
            let (solver, d, _, _, _) = lane_instance(seed);
            let (g, n, ground) = (&solver.graph, solver.graph.n(), solver.ground);
            let pc = solver.precondition(&mut Tracker::new(), &d, None);
            for v in 0..n {
                let mut s = 0.0;
                for &e in g.in_edges(v).iter().chain(g.out_edges(v)) {
                    s += d[e];
                }
                let want = if v == ground {
                    1.0
                } else {
                    1.0 / s.max(1e-300)
                };
                assert_eq!(pc.minv[v].to_bits(), want.to_bits(), "seed {seed}");
            }
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
            let ys: Vec<Vec<f64>> = (0..LANES)
                .map(|_| {
                    let mut y: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    y[ground] = 0.0;
                    y
                })
                .collect();
            let mut block = vec![0.0; n * LANES];
            for (v, row) in block.chunks_exact_mut(LANES).enumerate() {
                for (j, yj) in ys.iter().enumerate() {
                    row[j] = yj[v];
                }
            }
            let mut out = vec![0.0; n * LANES];
            solver.lane_matvec::<LANES>(&pc.w, &block, &mut out);
            for (j, y) in ys.iter().enumerate() {
                let mut want = vec![0.0; n];
                incidence::apply_laplacian_fused_into(
                    &mut Tracker::disabled(),
                    &solver.graph,
                    &d,
                    ground,
                    y,
                    &mut want,
                );
                let mut one = vec![0.0; n];
                solver.lane_matvec::<1>(&pc.w, y, &mut one);
                for v in 0..n {
                    assert_eq!(
                        out[v * LANES + j].to_bits(),
                        want[v].to_bits(),
                        "seed {seed}"
                    );
                    assert_eq!(one[v].to_bits(), want[v].to_bits(), "seed {seed}");
                }
            }
        }
    }
}
