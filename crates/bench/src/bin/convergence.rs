//! Convergence-curve "figure": μ, duality-gap proxy, μ step and
//! cumulative work/depth per iteration of the reference engine (the
//! paper has no figures; this is the observability a production solver
//! ships with). The rows are the engine's `ipm.iter` flight-recorder
//! events; per-iteration wall time lives in the `PMCF_REPORT` table.
//!
//! Flags: `[n] --seed <u64> --json <path>`; `PMCF_PROFILE=1` embeds the
//! span-tree profile of the solve, and `PMCF_EVENTS=<path>` dumps the
//! full recording the table is read from.

use pmcf_bench::{mdln, Artifact, BenchArgs, Json};
use pmcf_core::init;
use pmcf_core::reference::{path_follow, PathFollowConfig};
use pmcf_graph::generators;
use pmcf_obs::{Event, FlightRecorder};
use pmcf_pram::profile::tracker_from_env;

fn main() {
    let args = BenchArgs::parse();
    if !pmcf_obs::init_from_env() {
        pmcf_obs::install(FlightRecorder::new(pmcf_obs::recorder::DEFAULT_CAPACITY));
    }
    let n = args.max_size_or(64);
    let seed = args.seed_or(7);
    let mut artifact = Artifact::for_run("convergence", seed, &args);

    let m = generators::dense_m(n);
    let p = generators::random_mcf(n, m, 8, 6, seed);
    let ext = init::extend(&p).expect("bench instance within magnitude bounds");
    let mu0 = init::initial_mu(&ext.prob, 0.25);
    let mu_end = init::final_mu(&ext.prob);
    let mut t = tracker_from_env();
    let (_, stats) = path_follow(
        &mut t,
        &ext.prob,
        ext.x0.clone(),
        mu0,
        mu_end,
        &PathFollowConfig::default(),
    );
    let iters: Vec<Event> = pmcf_obs::with_recorder(|rec| {
        rec.events()
            .filter(|e| e.kind == "ipm.iter")
            .cloned()
            .collect()
    })
    .unwrap_or_default();
    let num = |e: &Event, k: &str| e.num(k).unwrap_or(f64::NAN);

    mdln!(
        args,
        "## Convergence trace — n={n}, m={m} ({} iterations)\n",
        stats.iterations
    );
    mdln!(args, "| iter | μ | gap proxy | step | work | depth |");
    mdln!(args, "|---|---|---|---|---|---|");
    for e in iters.iter().step_by(stats.iterations / 20 + 1) {
        mdln!(
            args,
            "| {} | {:.3e} | {:.3e} | {:.4} | {} | {} |",
            num(e, "iteration"),
            num(e, "mu"),
            num(e, "gap_proxy"),
            num(e, "step_size"),
            num(e, "work"),
            num(e, "depth"),
        );
    }
    mdln!(args);
    artifact.set("n", Json::from(n));
    artifact.set("m", Json::from(m));
    artifact.set("iterations", Json::from(stats.iterations));
    let rows: Vec<String> = iters.iter().map(Event::to_json_line).collect();
    artifact.set("trace", Json::Raw(format!("[{}]", rows.join(","))));
    // geometric μ decay per iteration, fitted from the first and last rows
    if let [first, .., last] = iters.as_slice() {
        let span = num(last, "iteration") - num(first, "iteration");
        let rate = ((num(last, "mu") / num(first, "mu")).ln() / span).exp();
        let tau_sum_guess = 2.0 * n as f64;
        mdln!(
            args,
            "μ decay/iter: {rate:.5} (theory: 1 − r/√Στ ≈ {:.5})",
            1.0 - 0.5 / tau_sum_guess.sqrt()
        );
        artifact.set("mu_decay_rate", Json::F64(rate));
    }
    artifact.attach_profile(&format!("reference IPM, n={n}, m={m}"), &t);
    artifact.emit(&args);
    pmcf_obs::finish();
}
