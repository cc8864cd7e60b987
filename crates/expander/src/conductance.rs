//! Measuring expansion.
//!
//! The paper's expanders are *conductance* expanders: `G` is a
//! `φ`-expander if every cut `S` has
//! `|E(S, V∖S)| / min(deg(S), deg(V∖S)) ≥ φ` (paper §2.1).
//!
//! Exact minimum conductance is NP-hard, so (per DESIGN.md §2) we use
//! one-sided tools: brute-force enumeration as a small-`n` test oracle,
//! sweep cuts over an approximate Fiedler vector to *find* sparse cuts,
//! and the Cheeger inequality `φ ≥ λ₂/2` to *certify* expansion.

use pmcf_graph::UGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Exact conductance by enumerating all `2^{n-1}` cuts (test oracle,
/// `n ≤ 24` enforced). Returns `None` for graphs with < 2 non-isolated
/// vertices or no edges; isolated vertices are ignored.
pub fn exact_conductance(g: &UGraph) -> Option<f64> {
    let support = g.support();
    let k = support.len();
    if k < 2 || g.m() == 0 {
        return None;
    }
    assert!(k <= 24, "exact conductance only for tiny graphs");
    let total_vol = g.total_volume();
    let mut best = f64::INFINITY;
    // iterate proper non-empty subsets of the support; fix support[0] out
    // of S to halve the space
    for mask in 1u32..(1 << (k - 1)) {
        let mut cut = 0usize;
        let mut vol = 0usize;
        let in_s = |v: usize| -> bool {
            support[1..]
                .iter()
                .position(|&w| w == v)
                .is_some_and(|i| mask >> i & 1 == 1)
        };
        for &v in &support[1..] {
            if in_s(v) {
                vol += g.degree(v);
            }
        }
        for &(u, v) in g.edges() {
            if in_s(u) != in_s(v) {
                cut += 1;
            }
        }
        let denom = vol.min(total_vol - vol);
        if denom > 0 {
            best = best.min(cut as f64 / denom as f64);
        }
    }
    Some(best)
}

/// Conductance of the specific cut given by a boolean mask.
pub fn cut_conductance(g: &UGraph, in_s: &[bool]) -> Option<f64> {
    let cut = g.cut_size(in_s);
    let vol: usize = (0..g.n()).filter(|&v| in_s[v]).map(|v| g.degree(v)).sum();
    let denom = vol.min(g.total_volume() - vol);
    (denom > 0).then(|| cut as f64 / denom as f64)
}

/// Approximate Fiedler vector of the *normalized* Laplacian by power
/// iteration on the lazy random walk `W = (I + D⁻¹A)/2`, deflating the
/// stationary (degree) direction. Isolated vertices get value 0.
pub fn approx_fiedler(g: &UGraph, iters: usize, seed: u64) -> Vec<f64> {
    let [x] = fiedler_lanes(g, iters, [seed]);
    x
}

/// `L` independent [`approx_fiedler`] runs, one per seed, advanced in
/// lockstep: each lane's arithmetic is exactly its solo run's, in the
/// same order, but the lanes share one pass over the neighbour lists and
/// their dependency chains overlap.
///
/// Allocation-free across iterations: the neighbour lists are flattened
/// once, two buffers swap roles, the deflation's `D`-inner product is
/// summed during the matvec and the norm during the deflation.
fn fiedler_lanes<const L: usize>(g: &UGraph, iters: usize, seeds: [u64; L]) -> [Vec<f64>; L] {
    let n = g.n();
    let deg: Vec<f64> = (0..n).map(|v| g.degree(v) as f64).collect();
    let total: f64 = deg.iter().sum();
    if total == 0.0 {
        return std::array::from_fn(|_| vec![0.0; n]);
    }
    // neighbour lists in CSR form, each row in adjacency (edge) order
    let mut off = Vec::with_capacity(n + 1);
    let mut nbr = Vec::with_capacity(g.total_volume());
    off.push(0);
    for u in 0..n {
        nbr.extend(g.neighbors(u).iter().map(|&(w, _)| w));
        off.push(nbr.len());
    }
    let randomize = |z: &mut [[f64; L]], r: usize, rng: &mut SmallRng| {
        for (zi, &di) in z.iter_mut().zip(&deg) {
            zi[r] = if di > 0.0 {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            };
        }
    };
    let deflate = |z: &mut [[f64; L]], r: usize| {
        // remove the component along 1 in the D-inner-product (the top
        // eigenvector of the random walk)
        let c: f64 = z.iter().zip(&deg).map(|(zi, di)| zi[r] * di).sum::<f64>() / total;
        for (zi, &di) in z.iter_mut().zip(&deg) {
            if di > 0.0 {
                zi[r] -= c;
            }
        }
    };
    let mut rngs = seeds.map(SmallRng::seed_from_u64);
    // lane r of vertex v lives at x[v][r]
    let mut x = vec![[0.0; L]; n];
    for (r, rng) in rngs.iter_mut().enumerate() {
        randomize(&mut x, r, rng);
        deflate(&mut x, r);
    }
    let mut y = vec![[0.0; L]; n];
    for _ in 0..iters {
        // y = W x, summing ⟨y, 1⟩_D on the way
        let mut dot = [0.0; L];
        for u in 0..n {
            let yu = if deg[u] == 0.0 {
                [0.0; L]
            } else {
                let mut acc = [0.0; L];
                for &w in &nbr[off[u]..off[u + 1]] {
                    for r in 0..L {
                        acc[r] += x[w][r];
                    }
                }
                std::array::from_fn(|r| 0.5 * x[u][r] + 0.5 * acc[r] / deg[u])
            };
            y[u] = yu;
            for r in 0..L {
                dot[r] += yu[r] * deg[u];
            }
        }
        // deflate, summing ‖y‖² on the way
        let c = dot.map(|d| d / total);
        let mut sq = [0.0; L];
        for (yi, &di) in y.iter_mut().zip(&deg) {
            for r in 0..L {
                if di > 0.0 {
                    yi[r] -= c[r];
                }
                sq[r] += yi[r] * yi[r];
            }
        }
        // normalize, or re-randomize a lane whose eigen-gap collapsed
        let norm = sq.map(f64::sqrt);
        let collapsed = norm.map(|v| v < 1e-300);
        for yi in y.iter_mut() {
            for r in 0..L {
                if !collapsed[r] {
                    yi[r] /= norm[r];
                }
            }
        }
        for (r, rng) in rngs.iter_mut().enumerate() {
            if collapsed[r] {
                randomize(&mut y, r, rng);
                deflate(&mut y, r);
            }
        }
        std::mem::swap(&mut x, &mut y);
    }
    std::array::from_fn(|r| x.iter().map(|xi| xi[r]).collect())
}

/// Sweep cut: sort vertices by `score/deg`-style embedding value and take
/// the best prefix cut. Returns `(mask, conductance)` of the best sweep
/// cut, or `None` if no proper cut exists.
pub fn sweep_cut(g: &UGraph, embed: &[f64]) -> Option<(Vec<bool>, f64)> {
    let n = g.n();
    assert_eq!(embed.len(), n);
    let mut order: Vec<usize> = (0..n).filter(|&v| g.degree(v) > 0).collect();
    if order.len() < 2 {
        return None;
    }
    order.sort_by(|&a, &b| embed[a].total_cmp(&embed[b]));
    let total_vol = g.total_volume();
    let mut in_s = vec![false; n];
    let mut vol = 0usize;
    let mut cut = 0usize;
    let mut best: Option<(usize, f64)> = None; // (prefix length, conductance)
    for (i, &v) in order.iter().enumerate().take(order.len() - 1) {
        in_s[v] = true;
        vol += g.degree(v);
        // update cut: edges incident to v flip status
        for &(w, _) in g.neighbors(v) {
            if w == v {
                continue; // self loop never cut
            }
            if in_s[w] {
                cut -= 1;
            } else {
                cut += 1;
            }
        }
        let denom = vol.min(total_vol - vol);
        if denom == 0 {
            continue;
        }
        let phi = cut as f64 / denom as f64;
        if best.is_none() || phi < best.unwrap().1 {
            best = Some((i + 1, phi));
        }
    }
    let (len, phi) = best?;
    let mut mask = vec![false; n];
    for &v in order.iter().take(len) {
        mask[v] = true;
    }
    Some((mask, phi))
}

/// Estimate `λ₂` of the normalized Laplacian from the Rayleigh quotient of
/// the approximate Fiedler vector; `λ₂/2 ≤ conductance` (Cheeger), so this
/// yields a one-sided expansion certificate.
pub fn spectral_gap_lower_bound(g: &UGraph, iters: usize, seed: u64) -> f64 {
    let x = approx_fiedler(g, iters, seed);
    rayleigh_quotient(g, &x)
}

/// Rayleigh quotient `xᵀLx / xᵀDx` of the normalized Laplacian (an upper
/// bound on λ₂ for x ⟂ top eigenvector; after power iteration it
/// approaches λ₂ from above only if converged — we use it heuristically
/// and rely on sweep cuts for the decisive test).
pub fn rayleigh_quotient(g: &UGraph, x: &[f64]) -> f64 {
    let num: f64 = g
        .edges()
        .iter()
        .map(|&(u, v)| (x[u] - x[v]) * (x[u] - x[v]))
        .sum();
    let den: f64 = (0..g.n()).map(|v| g.degree(v) as f64 * x[v] * x[v]).sum();
    if den <= 1e-300 {
        0.0
    } else {
        num / den
    }
}

/// Power-iteration rounds for a sparse-cut search in an `n`-vertex host
/// at target `φ`: `⌈3 ln n / φ⌉`, clamped to `12..=100`. The one count
/// both run and charged by every caller.
pub fn power_iterations(n: usize, phi: f64) -> usize {
    let iters = (3.0 * (n.max(2) as f64).ln() / phi.max(1e-3)).ceil() as usize;
    iters.clamp(12, 100)
}

/// Decide (heuristically, one-sided) whether `g` is a `φ`-expander: run a
/// few Fiedler rounds with different seeds; if any sweep cut has
/// conductance `< φ` return that cut as a witness, otherwise declare it
/// an expander.
pub fn find_sparse_cut(g: &UGraph, phi: f64, seed: u64) -> Option<(Vec<bool>, f64)> {
    find_sparse_cut_with(g, phi, power_iterations(g.n(), phi), seed)
}

/// [`find_sparse_cut`] running `iters` power iterations per round. The
/// static decomposition searches subgraphs compacted to their support
/// but keeps the host's iteration count, so its cuts do not depend on
/// how many isolated vertices the host carries.
pub(crate) fn find_sparse_cut_with(
    g: &UGraph,
    phi: f64,
    iters: usize,
    seed: u64,
) -> Option<(Vec<bool>, f64)> {
    if g.m() == 0 || g.support().len() < 2 {
        return None;
    }
    // Disconnected graphs always have a zero-conductance cut: split by
    // component.
    let (comp, count) = g.components();
    let support_comp: Vec<usize> = g.support().iter().map(|&v| comp[v]).collect();
    if count > 1 && support_comp.windows(2).any(|w| w[0] != w[1]) {
        let c0 = support_comp[0];
        let mask: Vec<bool> = (0..g.n()).map(|v| comp[v] == c0).collect();
        if let Some(phi_cut) = cut_conductance(g, &mask) {
            return Some((mask, phi_cut));
        }
    }
    // three seeded rounds, run as lanes of one power iteration
    let rounds = fiedler_lanes(g, iters, [0, 1, 2].map(|r| seed.wrapping_add(r)));
    let mut best: Option<(Vec<bool>, f64)> = None;
    for x in &rounds {
        if let Some((mask, phi_cut)) = sweep_cut(g, x) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use pmcf_graph::generators;

    fn complete_graph(n: usize) -> UGraph {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                edges.push((u, v));
            }
        }
        UGraph::from_edges(n, edges)
    }

    fn barbell(k: usize) -> UGraph {
        // two k-cliques joined by one edge — conductance ≈ 1/k²
        let mut edges = Vec::new();
        for base in [0, k] {
            for u in 0..k {
                for v in u + 1..k {
                    edges.push((base + u, base + v));
                }
            }
        }
        edges.push((k - 1, k));
        UGraph::from_edges(2 * k, edges)
    }

    #[test]
    fn complete_graph_has_high_conductance() {
        let g = complete_graph(8);
        let phi = exact_conductance(&g).unwrap();
        assert!(phi > 0.4, "K8 conductance {phi}");
    }

    #[test]
    fn barbell_has_low_conductance() {
        let g = barbell(5);
        let phi = exact_conductance(&g).unwrap();
        assert!(phi < 0.06, "barbell conductance {phi}");
    }

    #[test]
    fn sweep_cut_finds_barbell_bottleneck() {
        let g = barbell(6);
        let (mask, phi) = find_sparse_cut(&g, 0.3, 1).expect("should find the bridge cut");
        assert!(phi < 0.05, "found conductance {phi}");
        // the cut should separate the cliques
        let left_in: usize = (0..6).filter(|&v| mask[v]).count();
        assert!(left_in == 6 || left_in == 0, "clique split unevenly");
    }

    #[test]
    fn no_sparse_cut_in_complete_graph() {
        let g = complete_graph(12);
        assert!(find_sparse_cut(&g, 0.2, 2).is_none());
    }

    #[test]
    fn random_regular_is_expander() {
        let g = generators::random_regular_ugraph(64, 6, 7);
        assert!(
            find_sparse_cut(&g, 0.1, 3).is_none(),
            "6-regular random graph should have no cut below 0.1"
        );
    }

    #[test]
    fn disconnected_graph_has_zero_cut() {
        let g = UGraph::from_edges(6, vec![(0, 1), (1, 2), (3, 4), (4, 5)]);
        let (mask, phi) = find_sparse_cut(&g, 0.5, 1).unwrap();
        assert_eq!(phi, 0.0);
        assert_eq!(g.cut_size(&mask), 0);
    }

    #[test]
    fn exact_matches_cut_conductance_on_witness() {
        let g = barbell(4);
        let exact = exact_conductance(&g).unwrap();
        let (mask, phi) = find_sparse_cut(&g, 1.0, 5).unwrap();
        assert!(phi >= exact - 1e-12);
        assert!((cut_conductance(&g, &mask).unwrap() - phi).abs() < 1e-12);
    }

    #[test]
    fn rayleigh_quotient_zero_for_constant_on_component() {
        let g = UGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(rayleigh_quotient(&g, &[1.0, 1.0, 1.0, 1.0]), 0.0);
    }

    #[test]
    fn spectral_bound_positive_for_connected() {
        let g = complete_graph(10);
        let gap = spectral_gap_lower_bound(&g, 200, 1);
        assert!(gap > 0.5, "K10 normalized gap {gap}");
    }
}
