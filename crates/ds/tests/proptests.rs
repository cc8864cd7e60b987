//! Property-based tests of the IPM data structures.

use pmcf_ds::accumulator::GradientAccumulator;
use pmcf_ds::gradient::flat_max;
use pmcf_ds::heavy_hitter::HeavyHitter;
use pmcf_ds::sorted_list::SortedList;
use pmcf_ds::tau_sampler::TauSampler;
use pmcf_graph::generators;
use pmcf_pram::Tracker;
use proptest::prelude::*;

/// The search `flat_max` used before its closed form, kept as an
/// oracle: a ternary search over the ∞-budget `s` around a bisection for
/// the ℓ₂ multiplier `c`, `w_i = sign(x_i)·min(s, c|x_i|/v_i²)`.
fn flat_max_search(x: &[f64], v: &[f64]) -> Vec<f64> {
    if x.is_empty() {
        return Vec::new();
    }
    let eval = |s: f64| -> (f64, Vec<f64>) {
        let r = 1.0 - s;
        if r <= 0.0 {
            let w: Vec<f64> = x.iter().map(|&xi| xi.signum() * s).collect();
            let val = x.iter().map(|xi| xi.abs() * s).sum();
            return (val, w);
        }
        let norm_at = |c: f64| -> f64 {
            x.iter()
                .zip(v)
                .map(|(&xi, &vi)| {
                    let wi = (c * xi.abs() / (vi * vi)).min(s);
                    vi * vi * wi * wi
                })
                .sum::<f64>()
                .sqrt()
        };
        let mut hi = 1.0;
        while norm_at(hi) < r && hi < 1e18 {
            hi *= 2.0;
        }
        let c = if norm_at(hi) < r {
            hi
        } else {
            let (mut lo, mut hi_b) = (0.0, hi);
            for _ in 0..80 {
                let mid = 0.5 * (lo + hi_b);
                if norm_at(mid) < r {
                    lo = mid;
                } else {
                    hi_b = mid;
                }
            }
            0.5 * (lo + hi_b)
        };
        let w: Vec<f64> = x
            .iter()
            .zip(v)
            .map(|(&xi, &vi)| xi.signum() * (c * xi.abs() / (vi * vi)).min(s))
            .collect();
        let val = x.iter().zip(&w).map(|(a, b)| a * b).sum();
        (val, w)
    };
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..60 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        if eval(m1).0 < eval(m2).0 {
            lo = m1;
        } else {
            hi = m2;
        }
    }
    eval(0.5 * (lo + hi)).1
}

fn dot(x: &[f64], w: &[f64]) -> f64 {
    x.iter().zip(w).map(|(a, b)| a * b).sum()
}

/// `‖v∘w‖₂ + ‖w‖_∞`.
fn flat_norm(w: &[f64], v: &[f64]) -> f64 {
    let l2 = w
        .iter()
        .zip(v)
        .map(|(wi, vi)| (wi * vi) * (wi * vi))
        .sum::<f64>()
        .sqrt();
    l2 + w.iter().fold(0.0f64, |a, &wi| a.max(wi.abs()))
}

/// The closed form against the oracle: at least its objective, feasible,
/// sign-aligned, and zero exactly where `x` is.
fn check_flat_max(x: &[f64], v: &[f64]) {
    let w = flat_max(x, v);
    assert_eq!(w.len(), x.len());
    let (got, want) = (dot(x, &w), dot(x, &flat_max_search(x, v)));
    assert!(
        got >= want * (1.0 - 1e-12),
        "objective {} < oracle {}",
        got,
        want
    );
    assert!(
        flat_norm(&w, v) <= 1.0 + 1e-12,
        "flat norm {}",
        flat_norm(&w, v)
    );
    for (&wi, &xi) in w.iter().zip(x) {
        assert!(wi * xi >= 0.0);
        if xi == 0.0 {
            assert!(wi == 0.0);
        }
    }
}

#[test]
fn flat_max_edge_cases() {
    check_flat_max(&[], &[]);
    check_flat_max(&[0.0; 5], &[0.5, 1.0, 2.0, 1e-2, 1e5]);
    assert!(flat_max(&[0.0; 5], &[1.0; 5]).iter().all(|&w| w == 0.0));
    for (x, v) in [(2.0, 3.0), (-2.0, 3.0), (1e-3, 1e5), (7.0, 1e-2)] {
        check_flat_max(&[x], &[v]);
        // one coordinate: |w| + v|w| ≤ 1, so w = sign(x)/(1 + v)
        let w = flat_max(&[x], &[v])[0];
        assert!(
            (w - x.signum() / (1.0 + v)).abs() <= 1e-15,
            "x={x} v={v}: w={w}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn heavy_query_equals_brute_force(
        seed in 0u64..200,
        eps in 0.1f64..5.0,
        hs in prop::collection::vec(-3.0f64..3.0, 16),
    ) {
        let g = generators::gnm_digraph(16, 48, seed);
        let w: Vec<f64> = (0..48).map(|e| ((e * 7 + seed as usize) % 13) as f64 / 3.0).collect();
        let mut t = Tracker::new();
        let hh = HeavyHitter::initialize(&mut t, g.clone(), w.clone(), seed);
        let got = hh.heavy_query(&mut t, &hs, eps);
        let want: Vec<usize> = g.edges().iter().enumerate()
            .filter(|&(e, &(u, v))| (w[e] * (hs[v] - hs[u])).abs() >= eps)
            .map(|(e, _)| e)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn heavy_query_correct_after_scales(
        seed in 0u64..100,
        updates in prop::collection::vec((0usize..48, 0.0f64..8.0), 1..30),
    ) {
        let g = generators::gnm_digraph(16, 48, seed);
        let mut w = vec![1.0f64; 48];
        let mut t = Tracker::new();
        let mut hh = HeavyHitter::initialize(&mut t, g.clone(), w.clone(), seed);
        for chunk in updates.chunks(5) {
            hh.scale(&mut t, chunk);
            for &(e, s) in chunk {
                w[e] = s;
            }
        }
        let hs: Vec<f64> = (0..16).map(|v| ((v * 31 + seed as usize) % 7) as f64 - 3.0).collect();
        let got = hh.heavy_query(&mut t, &hs, 1.0);
        let want: Vec<usize> = g.edges().iter().enumerate()
            .filter(|&(e, &(u, v))| (w[e] * (hs[v] - hs[u])).abs() >= 1.0)
            .map(|(e, _)| e)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn flat_max_matches_search_oracle(
        coords in prop::collection::vec((-5.0f64..5.0, 0u8..10, -2.0f64..5.0), 1..200),
    ) {
        // ~10% exact zeros; v log-uniform over 1e-2..1e5
        let x: Vec<f64> = coords.iter().map(|&(x, z, _)| if z == 0 { 0.0 } else { x }).collect();
        let v: Vec<f64> = coords.iter().map(|&(.., e)| 10f64.powf(e)).collect();
        check_flat_max(&x, &v);
    }

    #[test]
    fn flat_max_always_feasible_and_sign_aligned(
        x in prop::collection::vec(-5.0f64..5.0, 1..8),
        v in prop::collection::vec(0.1f64..4.0, 8),
    ) {
        let v = &v[..x.len()];
        let w = flat_max(&x, v);
        let l2: f64 = w.iter().zip(v).map(|(wi, vi)| (wi * vi) * (wi * vi)).sum::<f64>().sqrt();
        let linf = w.iter().fold(0.0f64, |a, &wi| a.max(wi.abs()));
        prop_assert!(l2 + linf <= 1.0 + 1e-6);
        // the maximizer never moves against the gradient
        for (wi, xi) in w.iter().zip(&x) {
            prop_assert!(wi * xi >= -1e-9);
        }
    }

    #[test]
    fn accumulator_tracks_dense_reference(
        steps in prop::collection::vec(prop::collection::vec(-0.01f64..0.01, 3), 1..40),
        seed in 0u64..50,
    ) {
        let m = 20;
        let g: Vec<f64> = (0..m).map(|i| 0.5 + ((i as u64 + seed) % 4) as f64 / 2.0).collect();
        let bucket: Vec<usize> = (0..m).map(|i| i % 3).collect();
        let eps = vec![0.02; m];
        let mut t = Tracker::new();
        let mut acc = GradientAccumulator::initialize(
            &mut t, vec![0.0; m], g.clone(), bucket.clone(), 3, eps.clone());
        let mut dense = vec![0.0f64; m];
        for s in &steps {
            for i in 0..m {
                dense[i] += g[i] * s[bucket[i]];
            }
            let _ = acc.query(&mut t, s, &[]);
            for i in 0..m {
                prop_assert!((acc.xbar()[i] - dense[i]).abs() <= eps[i] + 1e-12);
            }
        }
        let exact = acc.compute_exact(&mut t);
        for i in 0..m {
            prop_assert!((exact[i] - dense[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn sorted_list_behaves_like_btreeset(
        ops in prop::collection::vec((0u8..3, prop::collection::vec(-50i64..50, 0..6)), 1..30),
    ) {
        let mut t = Tracker::new();
        let mut l: SortedList<i64> = SortedList::new();
        let mut reference = std::collections::BTreeSet::new();
        for (op, items) in &ops {
            match op {
                0 => {
                    l.insert(&mut t, items.iter().copied());
                    reference.extend(items.iter().copied());
                }
                1 => {
                    l.delete(&mut t, items);
                    for x in items {
                        reference.remove(x);
                    }
                }
                _ => {
                    let got = l.search(&mut t, items);
                    for (x, g) in items.iter().zip(got) {
                        prop_assert_eq!(g, reference.contains(x));
                    }
                }
            }
        }
        prop_assert_eq!(l.retrieve_all(&mut t), reference.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn tau_sampler_sum_consistent_under_scales(
        updates in prop::collection::vec((0usize..30, 0.01f64..100.0), 1..50),
    ) {
        let mut t = Tracker::new();
        let mut tau = vec![1.0f64; 30];
        let mut s = TauSampler::initialize(&mut t, 10, tau.clone(), 3);
        for chunk in updates.chunks(7) {
            s.scale(&mut t, chunk);
            for &(i, v) in chunk {
                tau[i] = v;
            }
            let want: f64 = tau.iter().sum();
            prop_assert!((s.weight_sum() - want).abs() < 1e-6 * want);
        }
        // probability lower bound holds for every index
        let idx: Vec<usize> = (0..30).collect();
        let p = s.probability(&mut t, &idx, 0.7);
        let sum: f64 = tau.iter().sum();
        for (i, &pi) in p.iter().enumerate() {
            let lb = (0.7 * 10.0 * tau[i] / sum).min(1.0);
            prop_assert!(pi >= lb - 1e-9, "idx {}: {} < {}", i, pi, lb);
        }
    }
}
