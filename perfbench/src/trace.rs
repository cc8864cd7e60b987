//! The traced run: spans recorded from the benchmark around each public
//! stage call, merged with the program's own span profile
//! (`Tracker::profiled()`), its counters, and the pool telemetry into the
//! per-layer metrics.

use pmcf_core::{init, reference, robust, rounding, validate_instance};
use pmcf_core::{Engine, McfError, McfSolution, SolverConfig};
use pmcf_graph::{Flow, McfProblem};
use pmcf_pram::profile::SpanReport;
use pmcf_pram::Tracker;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Program spans that only wrap a stage: their self time belongs to no
/// named span and counts as uncovered.
const WRAPPER_SPANS: [&str; 2] = ["ipm/loop", "resolve"];

/// One span recorded by the benchmark.
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory until the run ends.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span; returns its duration.
    pub fn exit(&mut self) -> Duration {
        let id = self.open.pop().expect("exit without an open span");
        let end = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end;
        Duration::from_nanos(end - s.start_ns)
    }

    /// Spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close the spans a panic left open above `depth`.
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit();
        }
    }

    /// Run `f` inside a span; returns its result and duration.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        self.enter(name, op);
        let out = f();
        (out, self.exit())
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]");
        out
    }
}

/// Stage wall times of one traced operation.
#[derive(Default)]
pub struct Stages {
    pub validate: Duration,
    pub extend: Duration,
    pub path_follow: Duration,
    pub round: Duration,
    pub resolve: Duration,
}

impl Stages {
    /// Wall time of the stage the program's spans run in.
    fn root(&self) -> Duration {
        self.path_follow + self.resolve
    }

    fn total(&self) -> Duration {
        self.validate + self.extend + self.path_follow + self.round + self.resolve
    }
}

/// `solve_mcf` on a connected instance without zero-capacity edges or
/// self loops (every dense workload instance), called stage by stage
/// through the public stage functions, each inside a benchmark span.
pub fn staged_solve(
    log: &mut SpanLog,
    op: u64,
    t: &mut Tracker,
    p: &McfProblem,
    cfg: &SolverConfig,
) -> (Result<McfSolution, McfError>, Stages) {
    let mut st = Stages::default();
    let (valid, d) = log.time("validate_instance", op, || validate_instance(p));
    st.validate = d;
    if let Err(e) = valid {
        return (Err(e), st);
    }
    let (ext, d) = log.time("init::extend", op, || init::extend(p));
    st.extend = d;
    let ext = match ext {
        Ok(ext) => ext,
        Err(e) => return (Err(e), st),
    };
    // the same path parameters `solve_mcf` uses
    let mu0 = init::initial_mu(&ext.prob, 0.25);
    let mu_end = init::final_mu(&ext.prob);
    let ((state, stats), d) = match cfg.engine {
        Engine::Reference => log.time("reference::path_follow", op, || {
            reference::path_follow(t, &ext.prob, ext.x0.clone(), mu0, mu_end, &cfg.path)
        }),
        Engine::Robust => log.time("robust::path_follow", op, || {
            robust::path_follow(t, &ext.prob, ext.x0.clone(), mu0, mu_end, &cfg.path)
        }),
    };
    st.path_follow = d;
    let (rounded, d) = log.time("rounding::round_to_optimal", op, || {
        rounding::round_to_optimal(&ext.prob, &state.x)
    });
    st.round = d;
    let result = rounded.and_then(|r| {
        if r.x[ext.m_orig..].iter().any(|&x| x != 0) {
            return Err(McfError::Infeasible);
        }
        let flow = Flow {
            x: r.x[..ext.m_orig].to_vec(),
        };
        let cost = flow.cost(p);
        Ok(McfSolution { flow, cost, stats })
    });
    (result, st)
}

/// Per-layer accumulators over the traced operations.
#[derive(Default)]
pub struct Layers {
    /// Traced operations.
    ops: u64,
    /// Traced operations inside the charged rounds (divisor of counts).
    charged_ops: u64,
    stages: Stages,
    /// Root-stage time outside every program span.
    gap: Duration,
    /// Self wall and self charged work per layer: span prefix (`ipm`,
    /// `linalg`, …), with each wrapper span's self time kept apart.
    prefix: BTreeMap<String, (Duration, u64)>,
    ds_calls: u64,
    /// Program counters summed over the charged rounds.
    counters: BTreeMap<String, u64>,
    ipm_iterations: u64,
    newton_steps: u64,
    pool: PoolTotals,
    oracle: Duration,
    /// Untraced wall time of the traced operations, and their allocations.
    untraced: Duration,
    allocs: u64,
}

#[derive(Default)]
struct PoolTotals {
    joins: u64,
    steals: u64,
    queued: u64,
    inline: u64,
    busy_ns: Vec<u64>,
}

impl Layers {
    /// Fold one traced operation in: its stage times, its profile, the
    /// pool telemetry recorded across it, and the untraced twin's wall
    /// time and allocation count.
    #[allow(clippy::too_many_arguments)]
    pub fn add(
        &mut self,
        charged: bool,
        stages: &Stages,
        t: &Tracker,
        sol: Option<&McfSolution>,
        pool: &rayon::telemetry::PoolTelemetry,
        oracle: Duration,
        untraced: Duration,
        allocs: u64,
    ) {
        self.ops += 1;
        let s = &mut self.stages;
        s.validate += stages.validate;
        s.extend += stages.extend;
        s.path_follow += stages.path_follow;
        s.round += stages.round;
        s.resolve += stages.resolve;
        self.oracle += oracle;
        self.untraced += untraced;
        self.allocs += allocs;

        let profile = t.profile_report().expect("traced tracker is profiled");
        let top: Duration = profile.spans.iter().map(|s| s.wall).sum();
        self.gap += stages.root().saturating_sub(top);
        for span in &profile.spans {
            self.walk(span);
        }

        let p = &mut self.pool;
        p.joins += pool.joins;
        p.steals += pool.steals;
        p.queued += pool.jobs_queued;
        p.inline += pool.jobs_inline;
        if p.busy_ns.len() < pool.busy_ns.len() {
            p.busy_ns.resize(pool.busy_ns.len(), 0);
        }
        for (acc, b) in p.busy_ns.iter_mut().zip(&pool.busy_ns) {
            *acc += b;
        }

        if charged {
            self.charged_ops += 1;
            for (k, v) in &profile.counters {
                *self.counters.entry(k.clone()).or_default() += v;
            }
            if let Some(sol) = sol {
                self.ipm_iterations += sol.stats.iterations as u64;
                self.newton_steps += sol.stats.newton_steps as u64;
            }
        }
    }

    fn walk(&mut self, s: &SpanReport) {
        let child_wall: Duration = s.children.iter().map(|c| c.wall).sum();
        let self_wall = s.wall.saturating_sub(child_wall);
        let self_work = s.work.saturating_sub(s.child_work());
        let layer = if WRAPPER_SPANS.contains(&s.name.as_str()) {
            format!("{} (self)", s.name)
        } else {
            s.name.split('/').next().unwrap_or_default().to_string()
        };
        if layer == "ds" {
            self.ds_calls += s.count;
        }
        let e = self.prefix.entry(layer).or_default();
        e.0 += self_wall;
        e.1 += self_work;
        for c in &s.children {
            self.walk(c);
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn prefix_self(&self, prefix: &str) -> (Duration, u64) {
        self.prefix.get(prefix).copied().unwrap_or_default()
    }

    /// The per-layer metrics, in `BENCHMARK.json` order: `(name, value,
    /// unit)`. Times are means per traced operation, counts means per
    /// operation of the charged rounds.
    pub fn metrics(&self, threads: usize) -> Vec<(&'static str, f64, &'static str)> {
        let ops = self.ops.max(1) as f64;
        let per_op = |d: Duration| d.as_secs_f64() / ops;
        let cops = self.charged_ops.max(1) as f64;
        let per_cop = |v: u64| v as f64 / cops;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let ns_per_work = |(wall, work): (Duration, u64)| ratio(wall.as_nanos() as u64, work);
        let (linalg, expander, ds) = (
            self.prefix_self("linalg"),
            self.prefix_self("expander"),
            self.prefix_self("ds"),
        );
        let loop_self = self.prefix_self("ipm/loop (self)").0;
        let uncovered = self.gap + loop_self + self.prefix_self("resolve (self)").0;
        let root = self.stages.root();
        let coverage = if root.is_zero() {
            0.0
        } else {
            1.0 - uncovered.as_secs_f64() / root.as_secs_f64()
        };
        let traced = self.stages.total();
        let busy: u64 = self.pool.busy_ns.iter().sum();
        let busy_threads: Vec<u64> = self
            .pool
            .busy_ns
            .iter()
            .copied()
            .filter(|&b| b > 0)
            .collect();
        let imbalance = match busy_threads.iter().max() {
            Some(&max) => max as f64 * busy_threads.len() as f64 / busy as f64,
            None => 0.0,
        };
        let solves = self.counter("solver.solves");
        let fresh = self.counter("pmcf.alloc.fresh");
        vec![
            ("core.path_follow_s", per_op(self.stages.path_follow), "s"),
            ("core.round_s", per_op(self.stages.round), "s"),
            ("core.extend_s", per_op(self.stages.extend), "s"),
            ("core.validate_s", per_op(self.stages.validate), "s"),
            ("core.resolve_s", per_op(self.stages.resolve), "s"),
            ("core.ipm_loop_self_s", per_op(loop_self), "s"),
            ("core.span_coverage", coverage, "frac"),
            ("core.ipm_iterations", per_cop(self.ipm_iterations), "count"),
            ("core.newton_steps", per_cop(self.newton_steps), "count"),
            (
                "core.structure_rebuilds",
                per_cop(self.counter("ipm.structure_rebuilds")),
                "count",
            ),
            ("linalg.s", per_op(linalg.0), "s"),
            (
                "linalg.cg_iterations",
                per_cop(self.counter("solver.cg_iterations_total")),
                "count",
            ),
            ("linalg.solves", per_cop(solves), "count"),
            (
                "linalg.precond_hit_ratio",
                ratio(
                    self.counter("solver.precond_hits"),
                    self.counter("solver.precond_hits") + self.counter("solver.precond_builds"),
                ),
                "frac",
            ),
            (
                "linalg.warm_start_ratio",
                ratio(self.counter("solver.warm_start_hits"), solves),
                "frac",
            ),
            ("linalg.ns_per_work", ns_per_work(linalg), "ns/unit"),
            ("expander.s", per_op(expander.0), "s"),
            (
                "expander.rebuilds",
                per_cop(self.counter("expander.rebuilds")),
                "count",
            ),
            (
                "expander.inserted_edges",
                per_cop(self.counter("expander.inserted_edges")),
                "count",
            ),
            (
                "expander.deleted_edges",
                per_cop(self.counter("expander.deleted_edges")),
                "count",
            ),
            ("expander.ns_per_work", ns_per_work(expander), "ns/unit"),
            ("ds.s", per_op(ds.0), "s"),
            ("ds.queries", self.ds_calls as f64 / ops, "count"),
            ("ds.ns_per_work", ns_per_work(ds), "ns/unit"),
            ("pram.alloc_fresh", per_cop(fresh), "count"),
            (
                "pram.alloc_reuse_ratio",
                ratio(
                    self.counter("pmcf.alloc.reuse"),
                    self.counter("pmcf.alloc.reuse") + fresh,
                ),
                "frac",
            ),
            ("pram.allocs_per_op", self.allocs as f64 / ops, "count"),
            ("pool.joins", self.pool.joins as f64 / ops, "count"),
            ("pool.steals", self.pool.steals as f64 / ops, "count"),
            (
                "pool.inline_ratio",
                ratio(self.pool.inline, self.pool.inline + self.pool.queued),
                "frac",
            ),
            (
                "pool.busy_frac",
                ratio(busy, traced.as_nanos() as u64 * threads as u64),
                "frac",
            ),
            ("pool.imbalance", imbalance, "ratio"),
            ("baselines.ssp_s", per_op(self.oracle), "s"),
            (
                "trace.overhead_frac",
                traced.as_secs_f64() / self.untraced.as_secs_f64().max(1e-12) - 1.0,
                "frac",
            ),
        ]
    }

    /// Share of the traced operations' wall time per layer: the stages
    /// outside path following, the program's spans by layer (self time;
    /// the rows sum to 1), and the part of the root stage no program
    /// span covers.
    pub fn shares_json(&self) -> String {
        let total = self.stages.total().as_secs_f64().max(1e-12);
        let share = |d: Duration| d.as_secs_f64() / total;
        let mut rows = vec![
            (
                "stage validate_instance".to_string(),
                share(self.stages.validate),
            ),
            ("stage init::extend".to_string(), share(self.stages.extend)),
            (
                "stage round_to_optimal".to_string(),
                share(self.stages.round),
            ),
            ("outside program spans".to_string(), share(self.gap)),
        ];
        for (layer, (wall, _)) in &self.prefix {
            rows.push((layer.clone(), share(*wall)));
        }
        let body: Vec<String> = rows.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }
}
