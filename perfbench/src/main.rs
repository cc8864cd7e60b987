//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <robust_dense|reference_dense|resolve_churn> \
//!     --seed <u64> --seconds <budget> --trace <0|1>
//! ```
//!
//! One caller in a closed loop issues operations, each after the previous
//! one returns: `solve_mcf` on the dense workloads, `resolve_mcf` on
//! churn. Operations come in rounds (see `perfbench::Workload`); the run
//! plays rounds until `--seconds` is spent, and at least the workload's
//! charged rounds. Every answer is checked against the SSP oracle outside
//! the timed region; any mismatch makes the run exit with code 1.
//!
//! With `--trace 0` operations run on `Tracker::new()` (charging on,
//! profiling off) and the last stdout line carries the end-to-end
//! metrics. With `--trace 1` every operation runs twice: untraced, then
//! stage by stage on `Tracker::profiled()` with pool telemetry recording,
//! inside spans the benchmark records; the last line carries the
//! per-layer metrics and the spans go to `out/` beside this package.
//! The line before the last carries the run context.

mod trace;

use perfbench::{check, median, percentile, samples_beyond, tail_percentile};
use perfbench::{dense_round, ChurnStream, Workload};
use pmcf_core::{resolve_mcf, solve_mcf, solve_mcf_checkpointed};
use pmcf_core::{McfCheckpoint, McfError, McfSolution, ResolveDelta, SolverConfig};
use pmcf_graph::McfProblem;
use pmcf_pram::Tracker;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Layers, SpanLog, Stages};

/// Set-ups timed per run at least; `setup_s` reports their median. The
/// first one also pays the pool start-up, a one-off event too noisy at
/// its sub-millisecond scale to add to every sample.
const SETUP_SAMPLES: usize = 7;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Counts of checked answers.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Check `got` against the oracle on `p`; a panic counts as a failure.
    fn verify(&mut self, p: &McfProblem, got: &std::thread::Result<Result<McfSolution, McfError>>) {
        self.attempted += 1;
        let verdict = match got {
            Ok(got) => check(p, got),
            Err(_) => Err("operation panicked".into()),
        };
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("perfbench: MISMATCH (n={}, m={}): {why}", p.n(), p.m());
        }
    }
}

/// One round's inputs (one round lives at a time, so size is no concern).
#[allow(clippy::large_enum_variant)]
enum Round {
    Dense(Vec<McfProblem>),
    Churn {
        ck: McfCheckpoint,
        stream: ChurnStream,
    },
}

impl Round {
    /// Generate round `round`; on churn also build its checkpoint (whose
    /// initial solve is checked like any operation).
    fn setup(w: Workload, seed: u64, round: u64, tally: &mut Tally) -> Round {
        match w {
            Workload::ResolveChurn => {
                let stream = ChurnStream::new(seed, round);
                let mut t = Tracker::new();
                let (ck, first) = solve_mcf_checkpointed(&mut t, stream.problem(), &w.config());
                tally.verify(stream.problem(), &Ok(first));
                Round::Churn { ck, stream }
            }
            _ => Round::Dense(dense_round(w, seed, round)),
        }
    }

    fn ops(&self) -> usize {
        match self {
            Round::Dense(ps) => ps.len(),
            Round::Churn { .. } => perfbench::CHURN_DELTAS,
        }
    }

    /// Untimed preparation of the next operation: on churn, its delta.
    fn prepare(&mut self) -> Option<ResolveDelta> {
        match self {
            Round::Dense(_) => None,
            Round::Churn { stream, .. } => Some(stream.next_delta()),
        }
    }

    /// The instance operation `i` solves (after `prepare`).
    fn problem(&self, i: usize) -> &McfProblem {
        match self {
            Round::Dense(ps) => &ps[i],
            Round::Churn { stream, .. } => stream.problem(),
        }
    }
}

/// One timed, untraced operation.
struct Sample {
    wall: Duration,
    m: usize,
    work: u64,
    depth: u64,
    allocs: u64,
}

fn run_untraced(
    round: &mut Round,
    i: usize,
    delta: Option<&ResolveDelta>,
    cfg: &SolverConfig,
    tally: &mut Tally,
) -> Sample {
    let mut t = Tracker::new();
    let allocs0 = pmcf_bench::alloc_count();
    let start = Instant::now();
    let got = catch_unwind(AssertUnwindSafe(|| match (&mut *round, delta) {
        (Round::Dense(ps), _) => solve_mcf(&mut t, &ps[i], cfg),
        (Round::Churn { ck, .. }, Some(d)) => resolve_mcf(&mut t, ck, d),
        (Round::Churn { .. }, None) => unreachable!("churn operations carry a delta"),
    }));
    let wall = start.elapsed();
    let allocs = pmcf_bench::alloc_count() - allocs0;
    let p = round.problem(i);
    tally.verify(p, &got);
    Sample {
        wall,
        m: p.m(),
        work: t.work(),
        depth: t.depth(),
        allocs,
    }
}

/// The traced twin of [`run_untraced`]: stage calls inside benchmark
/// spans on a profiled tracker, with pool telemetry recording.
#[allow(clippy::too_many_arguments)]
fn run_traced(
    round: &mut Round,
    i: usize,
    delta: Option<&ResolveDelta>,
    cfg: &SolverConfig,
    op: u64,
    log: &mut SpanLog,
    tally: &mut Tally,
) -> (
    Stages,
    Tracker,
    Option<McfSolution>,
    rayon::telemetry::PoolTelemetry,
    Duration,
) {
    let mut t = Tracker::profiled();
    log.enter("op", op);
    let depth = log.depth();
    rayon::telemetry::reset();
    rayon::telemetry::set_recording(true);
    let got = catch_unwind(AssertUnwindSafe(|| match (&mut *round, delta) {
        (Round::Dense(ps), _) => trace::staged_solve(log, op, &mut t, &ps[i], cfg),
        (Round::Churn { ck, .. }, Some(d)) => {
            let (r, resolve) = log.time("McfCheckpoint::resolve", op, || ck.resolve(&mut t, d));
            let stages = Stages {
                resolve,
                ..Stages::default()
            };
            (r, stages)
        }
        (Round::Churn { .. }, None) => unreachable!("churn operations carry a delta"),
    }));
    rayon::telemetry::set_recording(false);
    log.close_to(depth);
    let pool = rayon::telemetry::snapshot();
    let p = round.problem(i);
    let (got, stages) = match got {
        Ok((r, s)) => (Ok(r), s),
        Err(e) => (Err(e), Stages::default()),
    };
    let ((), oracle) = log.time("oracle", op, || tally.verify(p, &got));
    log.exit();
    let sol = got.ok().and_then(Result::ok);
    (stages, t, sol, pool, oracle)
}

/// Everything a run measured.
struct Run {
    samples: Vec<Sample>,
    setups: Vec<Duration>,
    rounds: u64,
    charged_work: u64,
    charged_depth: u64,
    layers: Layers,
    log: SpanLog,
}

fn run(args: &Args, tally: &mut Tally) -> Run {
    let w = args.workload;
    let cfg = w.config();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut r = Run {
        samples: Vec::new(),
        setups: Vec::new(),
        rounds: 0,
        charged_work: 0,
        charged_depth: 0,
        layers: Layers::default(),
        log: SpanLog::new(),
    };
    let mut op = 0u64;
    while r.rounds < w.charged_rounds() || start.elapsed() < budget {
        let charged = r.rounds < w.charged_rounds();
        let t0 = Instant::now();
        let mut round = Round::setup(w, args.seed, r.rounds, tally);
        r.setups.push(t0.elapsed());
        let mut twin = args
            .trace
            .then(|| Round::setup(w, args.seed, r.rounds, tally));
        for i in 0..round.ops() {
            let delta = round.prepare();
            let s = run_untraced(&mut round, i, delta.as_ref(), &cfg, tally);
            if charged {
                r.charged_work += s.work;
                r.charged_depth += s.depth;
            }
            if let Some(twin) = twin.as_mut() {
                let delta = twin.prepare();
                let (stages, t, sol, pool, oracle) =
                    run_traced(twin, i, delta.as_ref(), &cfg, op, &mut r.log, tally);
                r.layers.add(
                    charged,
                    &stages,
                    &t,
                    sol.as_ref(),
                    &pool,
                    oracle,
                    s.wall,
                    s.allocs,
                );
            }
            r.samples.push(s);
            op += 1;
        }
        r.rounds += 1;
    }
    while r.setups.len() < SETUP_SAMPLES {
        let t0 = Instant::now();
        let again = Round::setup(w, args.seed, 0, tally);
        r.setups.push(t0.elapsed());
        drop(again);
    }
    r
}

/// `(steal, total)` CPU ticks of the whole machine so far (`/proc/stat`):
/// time the hypervisor gave this machine's CPUs to other guests.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving the checkout; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.to_string()
        };
    };
    read(name)
        .map(|h| h.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| Some(l.strip_suffix(name)?.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let ticks0 = cpu_ticks();
    let pool_start = Instant::now();
    let threads = rayon::current_num_threads();
    let pool_startup = pool_start.elapsed();

    let mut tally = Tally::default();
    let run = run(&args, &mut tally);
    let ticks1 = cpu_ticks();
    let steal =
        ticks1.0.saturating_sub(ticks0.0) as f64 / ticks1.1.saturating_sub(ticks0.1).max(1) as f64;

    let mut walls: Vec<f64> = run.samples.iter().map(|s| s.wall.as_secs_f64()).collect();
    walls.sort_by(f64::total_cmp);
    let mut setups: Vec<f64> = run.setups.iter().map(Duration::as_secs_f64).collect();
    setups[0] += pool_startup.as_secs_f64();
    setups.sort_by(f64::total_cmp);
    let edges: usize = run.samples.iter().map(|s| s.m).sum();
    let busy: f64 = walls.iter().sum();
    let tail = tail_percentile(walls.len());

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shapes: Vec<String> = w
        .shapes()
        .iter()
        .map(|(n, m)| format!("[{n},{m}]"))
        .collect();
    let context = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"threads\": {threads}, \"commit\": \"{}\", \"shapes_n_m\": [{}], \"rounds\": {}, \
         \"charged_rounds\": {}, \"operations\": {}, \"samples_beyond_p90\": {}, \
         \"tail_percentile\": {}, \"solve_s_tail\": {}, \"failed_frac\": {}, \
         \"pool_startup_s\": {}, \"setup_samples\": {}, \"cpu_steal_frac\": {steal}}}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit(),
        shapes.join(","),
        run.rounds,
        w.charged_rounds(),
        walls.len(),
        samples_beyond(walls.len(), 90.0),
        tail.map_or("null".into(), |p| p.to_string()),
        tail.map_or("null".into(), |p| percentile(&walls, p).to_string()),
        tally.failed as f64 / tally.attempted.max(1) as f64,
        pool_startup.as_secs_f64(),
        setups.len(),
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let metrics = run.layers.metrics(threads);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", w.name(), args.seed));
        let doc = format!(
            "{{\"context\": {context},\n\"layer_share\": {},\n\"metrics\": {},\n\"spans\": {}}}\n",
            run.layers.shares_json(),
            json_metrics(&metrics),
            run.log.to_json()
        );
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        metrics
    } else {
        vec![
            ("solve_s_p50", median(&walls), "s"),
            ("solve_s_p90", percentile(&walls, 90.0), "s"),
            ("edges_per_s", edges as f64 / busy, "edges/s"),
            ("setup_s", median(&setups), "s"),
            ("charged_work", run.charged_work as f64, "work"),
            ("charged_depth", run.charged_depth as f64, "depth"),
            ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ]
    };

    for (name, v, unit) in &metrics {
        eprintln!("{:>26} {v:>16.6} {unit}", name);
    }
    let correct = tally.failed == 0;
    println!("{{\"context\": {context}}}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
