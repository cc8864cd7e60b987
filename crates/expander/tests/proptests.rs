//! Property-based tests of the expander machinery.

use pmcf_expander::boosting::BatchCounter;
use pmcf_expander::conductance::{
    approx_fiedler, cut_conductance, exact_conductance, find_sparse_cut, power_iterations,
    sweep_cut,
};
use pmcf_expander::static_decomp::{check_decomposition, edge_decompose, ExpanderPart};
use pmcf_expander::trimming::Trimmer;
use pmcf_expander::unit_flow::{parallel_unit_flow, UnitFlowProblem, UnitFlowState};
use pmcf_graph::{generators, EdgeId, UGraph, Vertex};
use pmcf_pram::{Cost, Tracker};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The static decomposition as it was before it compacted each recursion
/// node to its support, kept as an identity oracle: every node induces
/// over all host vertices and power-iterates over all of them, with a
/// fresh iterate buffer per round.
mod host_oracle {
    use super::*;

    pub fn approx_fiedler(g: &UGraph, iters: usize, seed: u64) -> Vec<f64> {
        let n = g.n();
        let mut rng = SmallRng::seed_from_u64(seed);
        let deg: Vec<f64> = (0..n).map(|v| g.degree(v) as f64).collect();
        let total: f64 = deg.iter().sum();
        if total == 0.0 {
            return vec![0.0; n];
        }
        let mut x: Vec<f64> = (0..n)
            .map(|v| {
                if deg[v] > 0.0 {
                    rng.gen_range(-1.0..1.0)
                } else {
                    0.0
                }
            })
            .collect();
        let deflate = |x: &mut Vec<f64>| {
            let c: f64 = x.iter().zip(&deg).map(|(xi, di)| xi * di).sum::<f64>() / total;
            for (xi, &di) in x.iter_mut().zip(&deg) {
                if di > 0.0 {
                    *xi -= c;
                }
            }
        };
        deflate(&mut x);
        for _ in 0..iters {
            let mut y = vec![0.0; n];
            for (u, row) in (0..n).map(|u| (u, g.neighbors(u))) {
                if deg[u] == 0.0 {
                    continue;
                }
                let mut acc = 0.0;
                for &(w, _) in row {
                    acc += x[w];
                }
                y[u] = 0.5 * x[u] + 0.5 * acc / deg[u];
            }
            deflate(&mut y);
            let norm: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm < 1e-300 {
                for (v, yi) in y.iter_mut().enumerate() {
                    *yi = if deg[v] > 0.0 {
                        rng.gen_range(-1.0..1.0)
                    } else {
                        0.0
                    };
                }
                deflate(&mut y);
            } else {
                for yi in y.iter_mut() {
                    *yi /= norm;
                }
            }
            x = y;
        }
        x
    }

    pub fn find_sparse_cut(g: &UGraph, phi: f64, seed: u64) -> Option<(Vec<bool>, f64)> {
        if g.m() == 0 || g.support().len() < 2 {
            return None;
        }
        let (comp, count) = g.components();
        let support_comp: Vec<usize> = g.support().iter().map(|&v| comp[v]).collect();
        if count > 1 && support_comp.windows(2).any(|w| w[0] != w[1]) {
            let c0 = support_comp[0];
            let mask: Vec<bool> = (0..g.n()).map(|v| comp[v] == c0).collect();
            if let Some(phi_cut) = cut_conductance(g, &mask) {
                return Some((mask, phi_cut));
            }
        }
        let iters = power_iterations(g.n(), phi);
        let mut best: Option<(Vec<bool>, f64)> = None;
        for round in 0..3u64 {
            let x = approx_fiedler(g, iters, seed.wrapping_add(round));
            if let Some((mask, phi_cut)) = sweep_cut(g, &x) {
                if best.as_ref().is_none_or(|b| phi_cut < b.1) {
                    best = Some((mask, phi_cut));
                }
            }
        }
        match best {
            Some((mask, phi_cut)) if phi_cut < phi => Some((mask, phi_cut)),
            _ => None,
        }
    }

    fn mix_salt(s: u64, side: u64) -> u64 {
        let mut z = s
            .wrapping_add(0x9e3779b97f4a7c15)
            .wrapping_add(side.wrapping_mul(0xd1b54a32d192ed03));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn decompose_subset(
        t: &mut Tracker,
        g: &UGraph,
        phi: f64,
        subset: Vec<Vertex>,
        salt: u64,
    ) -> Vec<Vec<Vertex>> {
        if subset.len() <= 1 {
            return if subset.is_empty() {
                Vec::new()
            } else {
                vec![subset]
            };
        }
        let mut keep = vec![false; g.n()];
        for &v in &subset {
            keep[v] = true;
        }
        let (sub, _) = g.induced(&keep);
        let iters = power_iterations(sub.n(), phi) as u64;
        t.charge(Cost::par_for(iters, Cost::par_flat(sub.m().max(1) as u64)));
        match find_sparse_cut(&sub, phi, salt) {
            None => vec![subset],
            Some((mask, _)) => {
                let (left, right): (Vec<Vertex>, Vec<Vertex>) =
                    subset.iter().copied().partition(|&v| mask[v]);
                if left.is_empty() || right.is_empty() {
                    return vec![subset];
                }
                let (ls, rs) = (mix_salt(salt, 1), mix_salt(salt, 2));
                let (mut a, b) = if left.len().min(right.len()) >= 32 {
                    t.par_join(
                        |t| decompose_subset(t, g, phi, left, ls),
                        |t| decompose_subset(t, g, phi, right, rs),
                    )
                } else {
                    t.join(
                        |t| decompose_subset(t, g, phi, left, ls),
                        |t| decompose_subset(t, g, phi, right, rs),
                    )
                };
                a.extend(b);
                a
            }
        }
    }

    pub fn edge_decompose(t: &mut Tracker, g: &UGraph, phi: f64, seed: u64) -> Vec<ExpanderPart> {
        let mut parts = Vec::new();
        let mut remaining: Vec<EdgeId> = (0..g.m()).collect();
        let max_rounds = (2.0 * (g.m().max(2) as f64).log2()).ceil() as usize + 1;
        for round in 0..max_rounds {
            if remaining.is_empty() {
                break;
            }
            let (sub, orig) = g.edge_subgraph(&remaining);
            let all: Vec<Vertex> = (0..sub.n()).collect();
            let salt = mix_salt(seed.wrapping_add(round as u64), 0);
            let clusters = decompose_subset(t, &sub, phi, all, salt);
            let mut cluster_of = vec![usize::MAX; g.n()];
            for (ci, cluster) in clusters.iter().enumerate() {
                for &v in cluster {
                    cluster_of[v] = ci;
                }
            }
            let mut part_edges: Vec<Vec<EdgeId>> = vec![Vec::new(); clusters.len()];
            let mut crossing = Vec::new();
            for (le, &(u, v)) in sub.edges().iter().enumerate() {
                if cluster_of[u] == cluster_of[v] {
                    part_edges[cluster_of[u]].push(orig[le]);
                } else {
                    crossing.push(orig[le]);
                }
            }
            t.charge(Cost::par_flat(sub.m() as u64));
            for (ci, edges) in part_edges.into_iter().enumerate() {
                if edges.is_empty() {
                    continue;
                }
                let vertices: Vec<Vertex> = clusters[ci]
                    .iter()
                    .copied()
                    .filter(|&v| sub.degree(v) > 0)
                    .collect();
                parts.push(ExpanderPart { vertices, edges });
            }
            remaining = crossing;
        }
        for e in remaining {
            let (u, v) = g.endpoints(e);
            let vertices = if u == v { vec![u] } else { vec![u, v] };
            parts.push(ExpanderPart {
                vertices,
                edges: vec![e],
            });
        }
        parts
    }
}

/// Graphs for the decomposition identity checks: `G(n, m)`, planted
/// clusters joined by a few random edges, and sparse "weight-class"
/// graphs whose few edges leave most of the host's vertices isolated.
fn identity_graph(family: u8, n: usize, seed: u64) -> UGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    match family {
        0 => {
            let m = rng.gen_range(n..=4 * n);
            generators::gnm_ugraph(n, m, seed)
        }
        1 => {
            let k = rng.gen_range(2..=5usize);
            let c = (n / k).max(2);
            let mut edges = Vec::new();
            for b in 0..k {
                for u in 0..c {
                    for v in u + 1..c {
                        if rng.gen_bool(0.5) {
                            edges.push((b * c + u, b * c + v));
                        }
                    }
                }
            }
            for _ in 0..k {
                edges.push((rng.gen_range(0..k * c), rng.gen_range(0..k * c)));
            }
            UGraph::from_edges(k * c, edges)
        }
        _ => {
            let m = rng.gen_range(1..=(n / 2).max(1));
            let edges = (0..m)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            UGraph::from_edges(n, edges)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compacted_decomposition_matches_host_oracle(
        family in 0u8..3,
        n in 4usize..=130,
        phi_ix in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let phi = [0.05, 0.1, 0.2][phi_ix];
        let g = identity_graph(family, n, seed);
        let (mut t_new, mut t_old) = (Tracker::new(), Tracker::new());
        let new = edge_decompose(&mut t_new, &g, phi, seed);
        let old = host_oracle::edge_decompose(&mut t_old, &g, phi, seed);
        prop_assert_eq!(new.len(), old.len());
        for (a, b) in new.iter().zip(&old) {
            prop_assert_eq!(&a.vertices, &b.vertices);
            prop_assert_eq!(&a.edges, &b.edges);
        }
        prop_assert_eq!(t_new.total(), t_old.total());

        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(&approx_fiedler(&g, 40, seed)),
            bits(&host_oracle::approx_fiedler(&g, 40, seed))
        );
        let (cut_new, cut_old) = (
            find_sparse_cut(&g, phi, seed),
            host_oracle::find_sparse_cut(&g, phi, seed),
        );
        prop_assert_eq!(
            cut_new.map(|(mask, c)| (mask, c.to_bits())),
            cut_old.map(|(mask, c)| (mask, c.to_bits()))
        );
    }
}

fn arb_ugraph(n: usize, max_m: usize) -> impl Strategy<Value = UGraph> {
    prop::collection::vec((0..n, 0..n), 1..max_m)
        .prop_map(move |edges| UGraph::from_edges(n, edges))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sweep_cut_value_is_consistent(g in arb_ugraph(10, 30), seed in 0u64..50) {
        let x = approx_fiedler(&g, 30, seed);
        if let Some((mask, phi)) = sweep_cut(&g, &x) {
            let direct = cut_conductance(&g, &mask).unwrap();
            prop_assert!((direct - phi).abs() < 1e-12);
        }
    }

    #[test]
    fn found_cut_never_beats_exact_optimum(g in arb_ugraph(9, 20), seed in 0u64..30) {
        if let (Some(best), Some((_, phi))) = (exact_conductance(&g), find_sparse_cut(&g, 1.0, seed)) {
            prop_assert!(phi >= best - 1e-12, "found {} below optimum {}", phi, best);
        }
    }

    #[test]
    fn edge_decomposition_always_partitions(g in arb_ugraph(16, 60), seed in 0u64..30) {
        let mut t = Tracker::new();
        let parts = edge_decompose(&mut t, &g, 0.1, seed);
        // partition + multiplicity bound (loose); expansion check on the
        // small side of the budget
        check_decomposition(&g, &parts, 0.01, 64, seed).unwrap();
    }

    #[test]
    fn batch_counter_preserves_and_bounds(batches in prop::collection::vec(prop::collection::vec(0usize..1000, 0..6), 1..80), base in 2usize..6) {
        let mut c = BatchCounter::new(base);
        let mut expect = Vec::new();
        for b in &batches {
            c.push(b.clone());
            expect.extend(b.iter().copied());
        }
        let mut flat: Vec<usize> = c.groups().flatten().copied().collect();
        let mut want = expect;
        flat.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(flat, want);
        // group count logarithmic-ish
        let bound = (base - 1) * (64 - (batches.len() as u64).leading_zeros() as usize + 2);
        prop_assert!(c.num_groups() <= bound, "{} groups for {} batches", c.num_groups(), batches.len());
    }

    #[test]
    fn unit_flow_conserves_under_arbitrary_demands(
        demands in prop::collection::vec((0usize..32, 0.5f64..6.0), 1..8),
        seed in 0u64..20,
    ) {
        let g = generators::random_regular_ugraph(32, 6, seed);
        let alive = vec![true; 32];
        let edge_ok = vec![true; g.m()];
        let p = UnitFlowProblem { g: &g, alive: &alive, edge_ok: &edge_ok, cap: 8.0, height: 20 };
        let mut s = UnitFlowState::new(32, g.m());
        let mut t = Tracker::new();
        let _ = parallel_unit_flow(&mut t, &p, &mut s, &demands, 0.4, 20_000);
        // conservation: Δ + net inflow == absorbed + excess at every vertex
        let mut net = vec![0.0f64; 32];
        for (e, &(u, v)) in g.edges().iter().enumerate() {
            net[u] -= s.flow[e];
            net[v] += s.flow[e];
        }
        for &(v, amt) in &demands {
            net[v] += amt;
        }
        for ((nv, av), ev) in net.iter().zip(&s.absorbed).zip(&s.excess) {
            prop_assert!((nv - (av + ev)).abs() < 1e-9);
        }
        // capacity bounds
        prop_assert!(s.flow.iter().all(|f| f.abs() <= 8.0 + 1e-9));
    }

    #[test]
    fn trimmer_never_resurrects(batches in prop::collection::vec(prop::collection::vec(0usize..96, 1..4), 1..6)) {
        let g = generators::random_regular_ugraph(32, 6, 3);
        let mut tr = Trimmer::new(g, 0.2);
        let mut t = Tracker::new();
        let mut dead_edges = std::collections::HashSet::new();
        let mut dead_verts = std::collections::HashSet::new();
        for batch in &batches {
            let r = tr.delete_batch(&mut t, batch);
            for &e in batch {
                dead_edges.insert(e);
            }
            for &v in &r.removed {
                prop_assert!(dead_verts.insert(v), "vertex {} pruned twice", v);
            }
            for &e in &dead_edges {
                prop_assert!(!tr.edge_alive(e), "deleted edge {} alive again", e);
            }
            for &v in &dead_verts {
                prop_assert!(!tr.is_alive(v), "pruned vertex {} alive again", v);
            }
        }
    }
}
