//! Determinism of the benchmark's inputs and of the counts it reports.

use perfbench::{dense_round, samples_beyond, tail_percentile, ChurnStream, Workload};
use pmcf_graph::McfProblem;
use std::process::Command;

fn same_instance(a: &McfProblem, b: &McfProblem) -> bool {
    a.graph.edges() == b.graph.edges() && a.cap == b.cap && a.cost == b.cost && a.demand == b.demand
}

#[test]
fn same_seed_gives_identical_dense_instances() {
    for w in [Workload::RobustDense, Workload::ReferenceDense] {
        for round in 0..3 {
            let a = dense_round(w, 7, round);
            let b = dense_round(w, 7, round);
            assert_eq!(a.len(), w.dense_sizes().len());
            assert!(a.iter().zip(&b).all(|(x, y)| same_instance(x, y)));
            let other = dense_round(w, 8, round);
            assert!(!same_instance(&a[0], &other[0]), "seeds must matter");
        }
    }
}

#[test]
fn same_seed_gives_identical_delta_streams() {
    let mut a = ChurnStream::new(7, 1);
    let mut b = ChurnStream::new(7, 1);
    assert!(same_instance(a.problem(), b.problem()));
    for _ in 0..perfbench::CHURN_DELTAS {
        assert_eq!(a.next_delta(), b.next_delta());
        assert!(same_instance(a.problem(), b.problem()));
    }
    let mut c = ChurnStream::new(7, 2);
    assert!(!same_instance(
        ChurnStream::new(7, 1).problem(),
        c.problem()
    ));
    let _ = c.next_delta();
}

#[test]
fn delta_stream_keeps_every_instance_feasible() {
    let mut s = ChurnStream::new(3, 0);
    for _ in 0..perfbench::CHURN_DELTAS {
        let d = s.next_delta();
        assert!(!d.is_empty());
        assert!(pmcf_baselines::ssp::min_cost_flow(s.problem()).is_some());
    }
}

#[test]
fn tail_percentile_is_the_highest_leaving_ten_samples() {
    let ladder = [50.0, 90.0, 95.0, 99.0, 99.9];
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(199), Some(90.0));
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    for n in 1..3000 {
        match tail_percentile(n) {
            Some(p) => {
                assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
                for &higher in ladder.iter().filter(|&&q| q > p) {
                    assert!(samples_beyond(n, higher) < 10, "n={n}: {higher} also fits");
                }
            }
            None => assert!(samples_beyond(n, 50.0) < 10, "n={n}"),
        }
    }
}

/// Run the benchmark for its charged rounds only and return the value of
/// each named metric on the result line.
fn run(workload: &str, threads: usize, trace: bool, names: &[&str]) -> Vec<f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("RAYON_NUM_THREADS", threads.to_string())
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    names
        .iter()
        .map(|name| {
            let key = format!("\"{name}\": {{\"value\": ");
            let at = last.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
            let end = last[at..].find(',').expect("value ends") + at;
            last[at..end].parse().expect("numeric value")
        })
        .collect()
}

#[test]
fn charged_counts_repeat_across_runs_and_pool_sizes() {
    let nproc = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    for w in Workload::ALL {
        for (trace, names) in [
            (false, &["charged_work", "charged_depth"][..]),
            (true, &["core.ipm_iterations", "core.newton_steps"][..]),
        ] {
            let one = run(w.name(), 1, trace, names);
            let many = run(w.name(), nproc, trace, names);
            assert_eq!(one, many, "{} {names:?} at 1 vs {nproc} threads", w.name());
            assert!(one.iter().all(|&v| v > 0.0));
        }
    }
}
