//! The gradient accumulator (paper Lemma D.5, Algorithm 7).
//!
//! Maintains a per-coordinate-accurate approximation `x̄` of
//!
//! ```text
//!   x(t) = x_init + Σ_{ℓ≤t} ( h^{(ℓ)} + G·Σ_k 1_{I_k} s_k^{(ℓ)} )
//! ```
//!
//! without touching all `m` coordinates per step: per bucket `k` only the
//! cumulative step sum `f_k = Σ_ℓ s_k^{(ℓ)}` advances; a coordinate is
//! lazily synced when its accumulated drift `|g_i (f_k − f_k^{sync_i})|`
//! could exceed its accuracy `ε_i/10`. Two min-heaps per bucket (by
//! upper / lower drift threshold) make finding violators
//! output-sensitive.

use pmcf_pram::{Cost, Tracker};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Monotone order-preserving mapping f64 → u64 (total order, NaN-free).
fn okey(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// A threshold entry `(key, coordinate, version)`. Deletion is lazy: an
/// entry is live while its version matches the coordinate's, so re-keying
/// a coordinate only bumps its version and pushes a fresh entry.
type Entry = Reverse<(u64, usize, u64)>;

/// Stale entries a heap may hold beyond its live ones before it is
/// compacted: compaction runs once stale entries outnumber live ones
/// (plus this slack, so near-empty buckets do not rebuild on every move).
const STALE_SLACK: usize = 4;

/// The accumulator.
pub struct GradientAccumulator {
    /// Approximation of `x(t)`.
    xbar: Vec<f64>,
    /// Scaling per coordinate.
    g: Vec<f64>,
    /// Per-coordinate accuracy.
    eps: Vec<f64>,
    /// Bucket per coordinate.
    bucket: Vec<usize>,
    /// Cumulative step per bucket.
    f: Vec<f64>,
    /// Value of `f[bucket(i)]` when `xbar[i]` was last synced.
    fsync: Vec<f64>,
    /// Version of each coordinate's current threshold entries.
    version: Vec<u64>,
    /// Per bucket: number of coordinates it holds (= live entries in each
    /// of its two heaps).
    live: Vec<usize>,
    /// Per bucket: coordinates by upper violation threshold.
    hi: Vec<BinaryHeap<Entry>>,
    /// Per bucket: coordinates by lower violation threshold (negated so
    /// smallest key = most urgent).
    lo: Vec<BinaryHeap<Entry>>,
    /// Query counter.
    t_step: usize,
}

impl GradientAccumulator {
    /// Initialize (Lemma D.5 `Initialize`): `Õ(m)` work.
    pub fn initialize(
        t: &mut Tracker,
        x_init: Vec<f64>,
        g: Vec<f64>,
        bucket: Vec<usize>,
        num_buckets: usize,
        eps: Vec<f64>,
    ) -> Self {
        let m = x_init.len();
        assert_eq!(g.len(), m);
        assert_eq!(bucket.len(), m);
        assert_eq!(eps.len(), m);
        assert!(bucket.iter().all(|&b| b < num_buckets));
        let mut s = GradientAccumulator {
            xbar: x_init,
            g,
            eps,
            bucket,
            f: vec![0.0; num_buckets],
            fsync: vec![0.0; m],
            version: vec![0; m],
            live: vec![0; num_buckets],
            hi: (0..num_buckets).map(|_| BinaryHeap::new()).collect(),
            lo: (0..num_buckets).map(|_| BinaryHeap::new()).collect(),
            t_step: 0,
        };
        for i in 0..m {
            s.insert_thresholds(i);
        }
        t.charge(Cost::sort(m as u64));
        s
    }

    fn drift_allowance(&self, i: usize) -> f64 {
        let gi = self.g[i].abs().max(1e-300);
        (self.eps[i] / (10.0 * gi)).max(1e-300)
    }

    fn insert_thresholds(&mut self, i: usize) {
        let b = self.bucket[i];
        let d = self.drift_allowance(i);
        let ver = self.version[i];
        self.live[b] += 1;
        self.hi[b].push(Reverse((okey(self.fsync[i] + d), i, ver)));
        self.lo[b].push(Reverse((okey(-(self.fsync[i] - d)), i, ver)));
        self.compact(b);
    }

    fn remove_thresholds(&mut self, i: usize) {
        let b = self.bucket[i];
        self.version[i] += 1;
        self.live[b] -= 1;
        if self.live[b] == 0 {
            // every entry left is stale: release the bucket's storage
            self.hi[b] = BinaryHeap::new();
            self.lo[b] = BinaryHeap::new();
        } else {
            self.compact(b);
        }
    }

    /// Drop bucket `b`'s stale entries once they outnumber its live ones,
    /// and release capacity a draining bucket no longer needs.
    fn compact(&mut self, b: usize) {
        let cap = 2 * self.live[b] + STALE_SLACK;
        let version = &self.version;
        for heap in [&mut self.hi[b], &mut self.lo[b]] {
            if heap.len() > cap {
                heap.retain(|&Reverse((_, i, ver))| version[i] == ver);
                heap.shrink_to(cap);
            }
        }
    }

    /// The smallest live entry of `heap`, discarding stale ones on top.
    fn peek_live(heap: &mut BinaryHeap<Entry>, version: &[u64]) -> Option<(u64, usize)> {
        while let Some(&Reverse((key, i, ver))) = heap.peek() {
            if version[i] == ver {
                return Some((key, i));
            }
            heap.pop();
        }
        None
    }

    /// Bring `xbar[i]` up to date (plus optional direct increment `h`).
    fn sync(&mut self, i: usize, h: f64, changed: &mut Vec<usize>) {
        self.remove_thresholds(i);
        let b = self.bucket[i];
        let delta = self.g[i] * (self.f[b] - self.fsync[i]) + h;
        if delta != 0.0 {
            self.xbar[i] += delta;
            changed.push(i);
        }
        self.fsync[i] = self.f[b];
        self.insert_thresholds(i);
    }

    /// Move coordinates to new buckets and update their scalings (Lemma
    /// D.5 `Move` then `Scale`, fused): each `(i, k, a)` sets `bucket_i ←
    /// k`, `g_i ← a` with one resync and one threshold re-key. Charged as
    /// a `Move` pass followed by a `Scale` pass: `Õ(|I|)` work.
    pub fn move_and_scale(&mut self, t: &mut Tracker, updates: &[(usize, usize, f64)]) {
        let len = updates.len() as u64;
        t.charge(Cost::par_flat(len).seq(Cost::par_flat(len)));
        for &(i, k, a) in updates {
            self.remove_thresholds(i);
            let delta = self.g[i] * (self.f[self.bucket[i]] - self.fsync[i]);
            if delta != 0.0 {
                self.xbar[i] += delta;
            }
            self.bucket[i] = k;
            self.fsync[i] = self.f[k];
            self.g[i] = a;
            self.insert_thresholds(i);
        }
    }

    /// Update accuracies (Lemma D.5 `SetAccuracy`): `Õ(|I|)` work.
    pub fn set_accuracy(&mut self, t: &mut Tracker, updates: &[(usize, f64)]) {
        t.charge(Cost::par_flat(updates.len() as u64));
        let mut changed = Vec::new();
        for &(i, d) in updates {
            assert!(d > 0.0);
            self.sync(i, 0.0, &mut changed);
            self.remove_thresholds(i);
            self.eps[i] = d;
            self.insert_thresholds(i);
        }
    }

    /// One step (Lemma D.5 `Query`): advance every bucket by `s_k`, apply
    /// the sparse direct increment `h`, and return `(x̄, J)` where `J`
    /// lists coordinates whose `x̄` changed. Output-sensitive work.
    pub fn query(&mut self, t: &mut Tracker, s: &[f64], h: &[(usize, f64)]) -> Vec<usize> {
        assert_eq!(s.len(), self.f.len());
        self.t_step += 1;
        let mut changed = Vec::new();
        for (fk, sk) in self.f.iter_mut().zip(s) {
            *fk += sk;
        }
        let mut touched = s.len() as u64 + h.len() as u64;
        for &(i, hi) in h {
            self.sync(i, hi, &mut changed);
        }
        // violators: f_k beyond a stored threshold
        for k in 0..self.f.len() {
            let fk = self.f[k];
            while let Some((key, i)) = Self::peek_live(&mut self.hi[k], &self.version) {
                if key >= okey(fk) {
                    break;
                }
                self.sync(i, 0.0, &mut changed);
                touched += 1;
            }
            while let Some((key, i)) = Self::peek_live(&mut self.lo[k], &self.version) {
                if key >= okey(-fk) {
                    break;
                }
                self.sync(i, 0.0, &mut changed);
                touched += 1;
            }
        }
        t.charge(Cost::new(
            touched.max(1),
            pmcf_pram::par_depth(touched.max(1)),
        ));
        changed.sort_unstable();
        changed.dedup();
        changed
    }

    /// The maintained approximation.
    pub fn xbar(&self) -> &[f64] {
        &self.xbar
    }

    /// Exact `x(t)` (Lemma D.5 `ComputeExactSum`): `Õ(m)` work.
    pub fn compute_exact(&mut self, t: &mut Tracker) -> Vec<f64> {
        let mut changed = Vec::new();
        for i in 0..self.xbar.len() {
            self.sync(i, 0.0, &mut changed);
        }
        t.charge(Cost::par_flat(self.xbar.len() as u64));
        self.xbar.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The unfused sequence `move_and_scale` replaces: a full `Move` pass
    /// (resync, re-key under the new bucket) followed by a full `Scale`
    /// pass (resync, re-key under the new scaling).
    fn move_then_scale(acc: &mut GradientAccumulator, t: &mut Tracker, up: &[(usize, usize, f64)]) {
        let mut changed = Vec::new();
        t.charge(Cost::par_flat(up.len() as u64));
        for &(i, k, _) in up {
            acc.sync(i, 0.0, &mut changed);
            acc.remove_thresholds(i);
            acc.bucket[i] = k;
            acc.fsync[i] = acc.f[k];
            acc.insert_thresholds(i);
        }
        t.charge(Cost::par_flat(up.len() as u64));
        for &(i, _, a) in up {
            acc.sync(i, 0.0, &mut changed);
            acc.remove_thresholds(i);
            acc.g[i] = a;
            acc.insert_thresholds(i);
        }
    }

    /// The accumulator with its threshold index as it was before the
    /// heaps: two ordered maps per bucket, re-keyed eagerly. Kept as the
    /// oracle the heap index must match bit for bit.
    struct MapAccumulator {
        xbar: Vec<f64>,
        g: Vec<f64>,
        eps: Vec<f64>,
        bucket: Vec<usize>,
        f: Vec<f64>,
        fsync: Vec<f64>,
        hi: Vec<std::collections::BTreeMap<(u64, usize), ()>>,
        lo: Vec<std::collections::BTreeMap<(u64, usize), ()>>,
    }

    impl MapAccumulator {
        fn initialize(
            t: &mut Tracker,
            x_init: Vec<f64>,
            g: Vec<f64>,
            bucket: Vec<usize>,
            num_buckets: usize,
            eps: Vec<f64>,
        ) -> Self {
            let m = x_init.len();
            let mut s = MapAccumulator {
                xbar: x_init,
                g,
                eps,
                bucket,
                f: vec![0.0; num_buckets],
                fsync: vec![0.0; m],
                hi: vec![Default::default(); num_buckets],
                lo: vec![Default::default(); num_buckets],
            };
            for i in 0..m {
                s.insert_thresholds(i);
            }
            t.charge(Cost::sort(m as u64));
            s
        }

        fn keys(&self, i: usize) -> (u64, u64) {
            let gi = self.g[i].abs().max(1e-300);
            let d = (self.eps[i] / (10.0 * gi)).max(1e-300);
            (okey(self.fsync[i] + d), okey(-(self.fsync[i] - d)))
        }

        fn insert_thresholds(&mut self, i: usize) {
            let (b, (h, l)) = (self.bucket[i], self.keys(i));
            self.hi[b].insert((h, i), ());
            self.lo[b].insert((l, i), ());
        }

        fn remove_thresholds(&mut self, i: usize) {
            let (b, (h, l)) = (self.bucket[i], self.keys(i));
            self.hi[b].remove(&(h, i));
            self.lo[b].remove(&(l, i));
        }

        fn sync(&mut self, i: usize, h: f64, changed: &mut Vec<usize>) {
            self.remove_thresholds(i);
            let b = self.bucket[i];
            let delta = self.g[i] * (self.f[b] - self.fsync[i]) + h;
            if delta != 0.0 {
                self.xbar[i] += delta;
                changed.push(i);
            }
            self.fsync[i] = self.f[b];
            self.insert_thresholds(i);
        }

        fn move_and_scale(&mut self, t: &mut Tracker, updates: &[(usize, usize, f64)]) {
            let len = updates.len() as u64;
            t.charge(Cost::par_flat(len).seq(Cost::par_flat(len)));
            for &(i, k, a) in updates {
                self.remove_thresholds(i);
                let delta = self.g[i] * (self.f[self.bucket[i]] - self.fsync[i]);
                if delta != 0.0 {
                    self.xbar[i] += delta;
                }
                self.bucket[i] = k;
                self.fsync[i] = self.f[k];
                self.g[i] = a;
                self.insert_thresholds(i);
            }
        }

        fn set_accuracy(&mut self, t: &mut Tracker, updates: &[(usize, f64)]) {
            t.charge(Cost::par_flat(updates.len() as u64));
            let mut changed = Vec::new();
            for &(i, d) in updates {
                self.sync(i, 0.0, &mut changed);
                self.remove_thresholds(i);
                self.eps[i] = d;
                self.insert_thresholds(i);
            }
        }

        fn query(&mut self, t: &mut Tracker, s: &[f64], h: &[(usize, f64)]) -> Vec<usize> {
            let mut changed = Vec::new();
            for (fk, sk) in self.f.iter_mut().zip(s) {
                *fk += sk;
            }
            let mut touched = s.len() as u64 + h.len() as u64;
            for &(i, hi) in h {
                self.sync(i, hi, &mut changed);
            }
            for k in 0..self.f.len() {
                let fk = self.f[k];
                while let Some((&(key, i), ())) = self.hi[k].iter().next() {
                    if key >= okey(fk) {
                        break;
                    }
                    self.sync(i, 0.0, &mut changed);
                    touched += 1;
                }
                while let Some((&(key, i), ())) = self.lo[k].iter().next() {
                    if key >= okey(-fk) {
                        break;
                    }
                    self.sync(i, 0.0, &mut changed);
                    touched += 1;
                }
            }
            t.charge(Cost::new(
                touched.max(1),
                pmcf_pram::par_depth(touched.max(1)),
            ));
            changed.sort_unstable();
            changed.dedup();
            changed
        }

        fn compute_exact(&mut self, t: &mut Tracker) -> Vec<f64> {
            let mut changed = Vec::new();
            for i in 0..self.xbar.len() {
                self.sync(i, 0.0, &mut changed);
            }
            t.charge(Cost::par_flat(self.xbar.len() as u64));
            self.xbar.clone()
        }
    }

    /// Every bucket's heaps hold their live entries plus bounded slack.
    fn heaps_are_compact(acc: &GradientAccumulator) -> bool {
        (0..acc.f.len()).all(|b| {
            let cap = 2 * acc.live[b] + STALE_SLACK;
            acc.hi[b].len() <= cap && acc.lo[b].len() <= cap
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fused_update_matches_two_passes(
            seed in 0u64..1000,
            rounds in prop::collection::vec(
                (prop::collection::vec(-0.05f64..0.05, 4),
                 prop::collection::vec((0usize..24, 0usize..4, -3.0f64..3.0), 0..10)),
                1..12),
        ) {
            let m = 24;
            let mut rng = SmallRng::seed_from_u64(seed);
            let g: Vec<f64> = (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let bucket: Vec<usize> = (0..m).map(|_| rng.gen_range(0..4)).collect();
            let eps: Vec<f64> = (0..m).map(|_| rng.gen_range(0.001..0.1)).collect();
            let mut t = Tracker::new();
            let mut fused = GradientAccumulator::initialize(
                &mut t, vec![0.0; m], g.clone(), bucket.clone(), 4, eps.clone());
            let mut split = GradientAccumulator::initialize(
                &mut t, vec![0.0; m], g, bucket, 4, eps);
            for (s, up) in &rounds {
                let (mut tf, mut ts) = (Tracker::new(), Tracker::new());
                fused.move_and_scale(&mut tf, up);
                move_then_scale(&mut split, &mut ts, up);
                prop_assert_eq!(tf.total(), ts.total());
                let bits = |a: &GradientAccumulator| -> Vec<u64> {
                    a.xbar().iter().map(|x| x.to_bits()).collect()
                };
                prop_assert_eq!(bits(&fused), bits(&split));
                let (jf, js) = (fused.query(&mut tf, s, &[]), split.query(&mut ts, s, &[]));
                prop_assert_eq!(jf, js);
                prop_assert_eq!(bits(&fused), bits(&split));
                prop_assert_eq!(tf.total(), ts.total());
            }
            let (ef, es) = (fused.compute_exact(&mut t), split.compute_exact(&mut t));
            prop_assert_eq!(
                ef.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                es.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }

        #[test]
        fn heap_index_matches_map_oracle(
            seed in 0u64..1_000_000,
            m in 1usize..80,
            num_buckets in 1usize..48,
            ops in 1usize..120,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g: Vec<f64> = (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let bucket: Vec<usize> = (0..m).map(|_| rng.gen_range(0..num_buckets)).collect();
            let eps: Vec<f64> = (0..m).map(|_| rng.gen_range(1e-4..0.1)).collect();
            let x0: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let (mut th, mut to) = (Tracker::new(), Tracker::new());
            let mut heap = GradientAccumulator::initialize(
                &mut th, x0.clone(), g.clone(), bucket.clone(), num_buckets, eps.clone());
            let mut map = MapAccumulator::initialize(&mut to, x0, g, bucket, num_buckets, eps);
            prop_assert_eq!(th.total(), to.total());
            let bits = |x: &[f64]| -> Vec<u64> { x.iter().map(|v| v.to_bits()).collect() };
            for _ in 0..ops {
                let (mut th, mut to) = (Tracker::new(), Tracker::new());
                match rng.gen_range(0..10u32) {
                    0..=2 => {
                        let up: Vec<(usize, usize, f64)> = (0..rng.gen_range(0..8))
                            .map(|_| (rng.gen_range(0..m), rng.gen_range(0..num_buckets),
                                      rng.gen_range(-3.0..3.0)))
                            .collect();
                        heap.move_and_scale(&mut th, &up);
                        map.move_and_scale(&mut to, &up);
                    }
                    3 => {
                        let up: Vec<(usize, f64)> = (0..rng.gen_range(0..6))
                            .map(|_| (rng.gen_range(0..m), rng.gen_range(1e-4..0.1)))
                            .collect();
                        heap.set_accuracy(&mut th, &up);
                        map.set_accuracy(&mut to, &up);
                    }
                    4 => {
                        let (eh, eo) = (heap.compute_exact(&mut th), map.compute_exact(&mut to));
                        prop_assert_eq!(bits(&eh), bits(&eo));
                    }
                    _ => {
                        // mostly tiny steps, now and then one that trips
                        // many thresholds at once
                        let scale = if rng.gen_bool(0.2) { 1.0 } else { 1e-3 };
                        let s: Vec<f64> = (0..num_buckets)
                            .map(|_| rng.gen_range(-scale..scale))
                            .collect();
                        let h: Vec<(usize, f64)> = (0..rng.gen_range(0..4))
                            .map(|_| (rng.gen_range(0..m), rng.gen_range(-0.5..0.5)))
                            .collect();
                        let (jh, jo) = (heap.query(&mut th, &s, &h), map.query(&mut to, &s, &h));
                        prop_assert_eq!(jh, jo);
                    }
                }
                prop_assert_eq!(th.total(), to.total());
                prop_assert_eq!(bits(heap.xbar()), bits(&map.xbar));
                prop_assert!(heaps_are_compact(&heap));
            }
        }
    }

    /// Reference: exact dense accumulation.
    struct Dense {
        x: Vec<f64>,
        g: Vec<f64>,
        bucket: Vec<usize>,
    }
    impl Dense {
        fn step(&mut self, s: &[f64], h: &[(usize, f64)]) {
            for i in 0..self.x.len() {
                self.x[i] += self.g[i] * s[self.bucket[i]];
            }
            for &(i, hi) in h {
                self.x[i] += hi;
            }
        }
    }

    #[test]
    fn tracks_dense_reference_within_accuracy() {
        let m = 60;
        let kk = 5;
        let mut rng = SmallRng::seed_from_u64(2);
        let g: Vec<f64> = (0..m).map(|_| rng.gen_range(0.5..2.0)).collect();
        let bucket: Vec<usize> = (0..m).map(|_| rng.gen_range(0..kk)).collect();
        let eps = vec![0.01; m];
        let mut t = Tracker::new();
        let mut acc = GradientAccumulator::initialize(
            &mut t,
            vec![0.0; m],
            g.clone(),
            bucket.clone(),
            kk,
            eps.clone(),
        );
        let mut dense = Dense {
            x: vec![0.0; m],
            g,
            bucket,
        };
        for step in 0..50 {
            let s: Vec<f64> = (0..kk).map(|_| rng.gen_range(-0.001..0.001)).collect();
            let h: Vec<(usize, f64)> = if step % 7 == 0 {
                vec![(rng.gen_range(0..m), rng.gen_range(-0.5..0.5))]
            } else {
                vec![]
            };
            dense.step(&s, &h);
            let _ = acc.query(&mut t, &s, &h);
            for (i, (xb, dx)) in acc.xbar().iter().zip(&dense.x).enumerate() {
                assert!(
                    (xb - dx).abs() <= eps[i] + 1e-12,
                    "step {step} coord {i}: {xb} vs {dx}"
                );
            }
        }
        // exact sum matches dense exactly
        let exact = acc.compute_exact(&mut t);
        for (ex, dx) in exact.iter().zip(&dense.x) {
            assert!((ex - dx).abs() < 1e-9);
        }
    }

    #[test]
    fn large_steps_trigger_immediate_sync() {
        let mut t = Tracker::new();
        let mut acc = GradientAccumulator::initialize(
            &mut t,
            vec![0.0; 3],
            vec![1.0; 3],
            vec![0, 0, 1],
            2,
            vec![0.1; 3],
        );
        let j = acc.query(&mut t, &[1.0, 0.0], &[]);
        // bucket 0 moved by 1.0 ≫ ε/10: coordinates 0,1 must sync
        assert!(j.contains(&0) && j.contains(&1));
        assert!(!j.contains(&2));
        assert!((acc.xbar()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_steps_do_not_touch_anything() {
        let mut t = Tracker::new();
        let mut acc = GradientAccumulator::initialize(
            &mut t,
            vec![0.0; 100],
            vec![1.0; 100],
            vec![0; 100],
            1,
            vec![1.0; 100],
        );
        t.reset();
        for _ in 0..5 {
            let j = acc.query(&mut t, &[0.001], &[]);
            assert!(j.is_empty());
        }
        // work must be O(steps), not O(m·steps)
        assert!(t.work() < 100, "work {}", t.work());
        // but the drift is still recoverable exactly
        let exact = acc.compute_exact(&mut t);
        assert!((exact[17] - 0.005).abs() < 1e-12);
    }

    #[test]
    fn moves_and_scales_preserve_value() {
        let mut t = Tracker::new();
        let mut acc = GradientAccumulator::initialize(
            &mut t,
            vec![0.0; 2],
            vec![1.0; 2],
            vec![0, 1],
            2,
            vec![0.05; 2],
        );
        acc.query(&mut t, &[1.0, 2.0], &[]);
        // x = [1, 2]; now move coord 0 to bucket 1 and scale it; future
        // steps use the new bucket/scale, past value preserved
        acc.move_and_scale(&mut t, &[(0, 1, 10.0)]);
        acc.query(&mut t, &[0.0, 0.5], &[]);
        let exact = acc.compute_exact(&mut t);
        assert!((exact[0] - (1.0 + 10.0 * 0.5)).abs() < 1e-9, "{}", exact[0]);
        assert!((exact[1] - 2.5).abs() < 1e-9);
    }

    #[test]
    fn set_accuracy_tightens_tracking() {
        let mut t = Tracker::new();
        let mut acc = GradientAccumulator::initialize(
            &mut t,
            vec![0.0; 1],
            vec![1.0; 1],
            vec![0],
            1,
            vec![10.0; 1],
        );
        acc.query(&mut t, &[0.5], &[]); // within slack 1.0: no sync
        assert!((acc.xbar()[0] - 0.0).abs() < 1e-12);
        acc.set_accuracy(&mut t, &[(0, 0.001)]); // sync + tighten
        assert!((acc.xbar()[0] - 0.5).abs() < 1e-12);
        let j = acc.query(&mut t, &[0.01], &[]);
        assert_eq!(j, vec![0], "tight accuracy forces sync");
    }
}
