//! k-wise independent hash families over `F_p`.
//!
//! A degree-(k-1) polynomial with uniform coefficients in `F_p`, evaluated at
//! the key, is a k-wise independent family — the classical construction used
//! throughout the sketching literature. The sketches in this workspace use:
//!
//! * pairwise (k = 2) hashes to spread edge indices across recovery buckets,
//! * higher independence (k ≈ 12, i.e. `O(log n)`) for the geometric
//!   level-sampling inside the ℓ0-sampler, matching the analysis of Jowhari
//!   et al. that the paper cites, and
//! * [`UniformHash`], a convenience wrapper that maps keys to `[0, 1)` for
//!   the paper's vertex-sampling (Section 3) and nested edge-subsampling
//!   (Section 5) steps.

use crate::fp61::{canon61, mul61, Fp, LANES, P};
use crate::seed::SeedTree;

/// FNV-1a over a byte slice — the workspace's frame checksum.
///
/// Every checksum-framed on-disk and on-wire format in this workspace (the
/// WAL segments, checkpoint manifests, the lossy-channel protocol, and the
/// trace postmortem files) frames payloads with this hash, so it lives at
/// the bottom layer where all of them can reach it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A k-wise independent hash `F_p -> F_p` given by a random polynomial.
#[derive(Clone, Debug)]
pub struct KWiseHash {
    /// Coefficients c_0..c_{k-1}; the hash is `sum c_i x^i` by Horner.
    coeffs: Vec<Fp>,
}

impl KWiseHash {
    /// Draws a hash from the k-wise independent family rooted at `seeds`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(seeds: &SeedTree, k: usize) -> KWiseHash {
        assert!(k >= 1, "independence parameter must be >= 1");
        let coeffs = (0..k)
            .map(|i| {
                // Rejection-free: value_at is uniform over u64; reduction mod P
                // introduces bias < 2^-58, irrelevant at our failure targets.
                Fp::new(seeds.value_at(i as u64))
            })
            .collect();
        KWiseHash { coeffs }
    }

    /// Evaluates the hash at `key` (any u64; embedded into the field).
    #[inline]
    pub fn eval(&self, key: u64) -> Fp {
        let x = Fp::new(key);
        let mut acc = Fp::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc.mul(x).add(c);
        }
        acc
    }

    /// Hash reduced to a bucket index in `[0, buckets)`.
    ///
    /// Uses the multiply-shift style reduction `(h * buckets) / P` to avoid
    /// modulo bias against small bucket counts, computed without a 128-bit
    /// division (see `fast_bucket`) — the peeling decoder calls this once
    /// per row for every coordinate it subtracts.
    #[inline]
    pub fn bucket(&self, key: u64, buckets: usize) -> usize {
        debug_assert!(buckets > 0);
        fast_bucket(self.eval(key).value(), buckets)
    }

    /// Evaluates the hash at every key in `keys`, writing into `out`.
    ///
    /// Equivalent to calling [`eval`](Self::eval) per key, but the Horner
    /// recurrence runs as an explicit [`LANES`]-wide kernel over raw
    /// `u64`s: each coefficient is loaded once per block, the per-lane
    /// accumulators stay in registers, and every `acc * x + c` step uses
    /// the branch-free Mersenne-61 reduction, so the whole block is
    /// straight-line code with four independent dependency chains.
    /// [`eval_batch_scalar`](Self::eval_batch_scalar) is the retained
    /// per-key oracle the property tests compare against.
    ///
    /// # Panics
    /// Panics if `out.len() != keys.len()`.
    pub fn eval_batch(&self, keys: &[u64], out: &mut [Fp]) {
        assert_eq!(keys.len(), out.len(), "eval_batch length mismatch");
        let mut kc = keys.chunks_exact(LANES);
        let mut oc = out.chunks_exact_mut(LANES);
        for (kb, ob) in (&mut kc).zip(&mut oc) {
            let mut x = [0u64; LANES];
            let mut acc = [0u64; LANES];
            for i in 0..LANES {
                x[i] = Fp::new(kb[i]).value();
            }
            for &c in self.coeffs.iter().rev() {
                let cv = c.value();
                for i in 0..LANES {
                    // acc = acc * x + c with one canon per step: the
                    // product is canonical (< P) after mul61, so adding a
                    // canonical coefficient stays below 2P.
                    acc[i] = canon61(mul61(acc[i], x[i]) + cv);
                }
            }
            for i in 0..LANES {
                ob[i] = Fp::new(acc[i]);
            }
        }
        for (&k, o) in kc.remainder().iter().zip(oc.into_remainder().iter_mut()) {
            *o = self.eval(k);
        }
    }

    /// Scalar reference loop for [`eval_batch`](Self::eval_batch) — one
    /// [`eval`](Self::eval) per key, kept as the property-test oracle for
    /// the lane kernel.
    ///
    /// # Panics
    /// Panics if `out.len() != keys.len()`.
    pub fn eval_batch_scalar(&self, keys: &[u64], out: &mut [Fp]) {
        assert_eq!(keys.len(), out.len(), "eval_batch length mismatch");
        for (&k, o) in keys.iter().zip(out.iter_mut()) {
            *o = self.eval(k);
        }
    }

    /// Bucket indices for a batch of keys; same mapping as
    /// [`bucket`](Self::bucket) but the `(h * buckets) / P` reduction is
    /// computed with a Mersenne fast division (shift plus a correction)
    /// instead of the generic 128-bit divide the scalar path compiles to.
    ///
    /// # Panics
    /// Panics if `out.len() != keys.len()` or `buckets == 0`.
    pub fn bucket_batch(&self, keys: &[u64], buckets: usize, out: &mut [usize]) {
        assert_eq!(keys.len(), out.len(), "bucket_batch length mismatch");
        assert!(buckets > 0);
        const BLOCK: usize = 2 * LANES;
        let mut scratch = [Fp::ZERO; BLOCK];
        let mut kc = keys.chunks(BLOCK);
        let mut oc = out.chunks_mut(BLOCK);
        for (kb, ob) in (&mut kc).zip(&mut oc) {
            let vals = &mut scratch[..kb.len()];
            self.eval_batch(kb, vals);
            for (v, o) in vals.iter().zip(ob.iter_mut()) {
                *o = fast_bucket(v.value(), buckets);
            }
        }
    }

    /// The independence parameter k (number of coefficients).
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// The coefficient vector (for persistence).
    pub fn coefficients(&self) -> &[Fp] {
        &self.coeffs
    }

    /// Rebuilds a hash from a persisted coefficient vector.
    ///
    /// # Panics
    /// Panics on an empty vector.
    pub fn from_coefficients(coeffs: Vec<Fp>) -> KWiseHash {
        assert!(!coeffs.is_empty(), "hash needs at least one coefficient");
        KWiseHash { coeffs }
    }

    /// Memory footprint in bytes (for the space accounting of experiments).
    pub fn size_bytes(&self) -> usize {
        self.coeffs.len() * std::mem::size_of::<Fp>()
    }
}

/// `floor((h * buckets) / P)` for `h < P`, without a 128-bit division.
///
/// Writing `prod = q0 * 2^61 + lo` gives `prod = q0 * P + (q0 + lo)`, so the
/// quotient is `q0` plus however many times `P` still fits in the remainder
/// `q0 + lo < 2P` (for any realistic bucket count) — at most one correction.
#[inline]
fn fast_bucket(h: u64, buckets: usize) -> usize {
    debug_assert!(h < P);
    let prod = h as u128 * buckets as u128;
    let mut q = (prod >> 61) as u64;
    let mut rem = (prod as u64 & P) + q;
    while rem >= P {
        q += 1;
        rem -= P;
    }
    q as usize
}

/// A hash mapping keys to the unit interval `[0, 1)`, used for the paper's
/// probability-p sampling decisions (keep vertex v in subgraph i iff
/// `u(v) < 1/k`; keep hyperedge e in G_i iff `u(e) < 2^-i`).
///
/// Backed by a [`KWiseHash`]; the unit value is `eval(key) / P`.
#[derive(Clone, Debug)]
pub struct UniformHash {
    inner: KWiseHash,
}

impl UniformHash {
    /// Draws a uniform hash with independence `k`.
    pub fn new(seeds: &SeedTree, k: usize) -> UniformHash {
        UniformHash {
            inner: KWiseHash::new(seeds, k),
        }
    }

    /// The unit-interval value for `key`.
    #[inline]
    pub fn unit(&self, key: u64) -> f64 {
        self.inner.eval(key).value() as f64 / P as f64
    }

    /// Bernoulli decision: true with probability `p` over the hash draw.
    #[inline]
    pub fn keep(&self, key: u64, p: f64) -> bool {
        self.unit(key) < p
    }

    /// The geometric "level" of a key: the largest `i` such that
    /// `unit(key) < 2^-i`, capped at `max_level`. Used by the ℓ0-sampler and
    /// the sparsifier's nested subsampling chain `G_0 ⊇ G_1 ⊇ ...`.
    #[inline]
    pub fn level(&self, key: u64, max_level: usize) -> usize {
        Self::level_of_value(self.inner.eval(key).value(), max_level)
    }

    /// Geometric levels for a batch of keys; the polynomial evaluation runs
    /// through [`KWiseHash::eval_batch`]. Results match [`level`](Self::level)
    /// exactly.
    ///
    /// # Panics
    /// Panics if `out.len() != keys.len()`.
    pub fn level_batch(&self, keys: &[u64], max_level: usize, out: &mut [usize]) {
        assert_eq!(keys.len(), out.len(), "level_batch length mismatch");
        let mut scratch = [Fp::ZERO; 8];
        let mut kc = keys.chunks(8);
        let mut oc = out.chunks_mut(8);
        for (kb, ob) in (&mut kc).zip(&mut oc) {
            let vals = &mut scratch[..kb.len()];
            self.inner.eval_batch(kb, vals);
            for (v, o) in vals.iter().zip(ob.iter_mut()) {
                *o = Self::level_of_value(v.value(), max_level);
            }
        }
    }

    #[inline]
    fn level_of_value(v: u64, max_level: usize) -> usize {
        if v == 0 {
            return max_level;
        }
        // unit < 2^-i  <=>  v < P / 2^i  (up to the negligible P vs 2^61 gap).
        let mut lvl = 0;
        let mut threshold = P >> 1;
        while lvl < max_level && v < threshold {
            lvl += 1;
            threshold >>= 1;
        }
        lvl
    }

    /// Memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    /// The underlying polynomial hash (for persistence).
    pub fn inner(&self) -> &KWiseHash {
        &self.inner
    }

    /// Rebuilds from a persisted polynomial hash.
    pub fn from_inner(inner: KWiseHash) -> UniformHash {
        UniformHash { inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> SeedTree {
        SeedTree::new(0xC0FFEE)
    }

    #[test]
    fn deterministic_eval() {
        let h1 = KWiseHash::new(&tree().child(1), 4);
        let h2 = KWiseHash::new(&tree().child(1), 4);
        for key in 0..100 {
            assert_eq!(h1.eval(key), h2.eval(key));
        }
    }

    #[test]
    fn different_seeds_give_different_hashes() {
        let h1 = KWiseHash::new(&tree().child(1), 4);
        let h2 = KWiseHash::new(&tree().child(2), 4);
        let agree = (0..1000).filter(|&k| h1.eval(k) == h2.eval(k)).count();
        assert!(agree < 5, "{agree} agreements out of 1000");
    }

    #[test]
    fn degree_one_is_constant() {
        let h = KWiseHash::new(&tree().child(9), 1);
        let v = h.eval(0);
        for key in 1..50 {
            assert_eq!(h.eval(key), v);
        }
    }

    #[test]
    fn bucket_range() {
        let h = KWiseHash::new(&tree().child(3), 2);
        for key in 0..10_000 {
            let b = h.bucket(key, 17);
            assert!(b < 17);
        }
    }

    #[test]
    fn buckets_roughly_uniform() {
        let h = KWiseHash::new(&tree().child(4), 2);
        let buckets = 8;
        let mut counts = vec![0usize; buckets];
        let n = 80_000;
        for key in 0..n as u64 {
            counts[h.bucket(key, buckets)] += 1;
        }
        let expect = n / buckets;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as i64 - expect as i64).unsigned_abs() < (expect / 5) as u64,
                "bucket {i} has {c}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn unit_values_in_range_and_roughly_uniform() {
        let h = UniformHash::new(&tree().child(5), 2);
        let n = 50_000;
        let mut below_half = 0;
        for key in 0..n as u64 {
            let u = h.unit(key);
            assert!((0.0..1.0).contains(&u));
            if u < 0.5 {
                below_half += 1;
            }
        }
        let frac = below_half as f64 / n as f64;
        assert!((0.45..0.55).contains(&frac), "frac below 1/2 = {frac}");
    }

    #[test]
    fn keep_probability_tracks_p() {
        let h = UniformHash::new(&tree().child(6), 2);
        let n = 100_000;
        for &p in &[0.1, 0.25, 0.5] {
            let kept = (0..n as u64).filter(|&k| h.keep(k, p)).count();
            let frac = kept as f64 / n as f64;
            assert!((frac - p).abs() < 0.02, "p = {p}, observed {frac}");
        }
    }

    #[test]
    fn level_distribution_is_geometric() {
        let h = UniformHash::new(&tree().child(7), 12);
        let n = 200_000;
        let max_level = 20;
        let mut counts = vec![0usize; max_level + 1];
        for key in 0..n as u64 {
            counts[h.level(key, max_level)] += 1;
        }
        // Level >= i happens with probability 2^-i; check the first few.
        let mut at_least = n;
        for (i, &c) in counts.iter().enumerate().take(6) {
            let expect = at_least / 2;
            assert!(
                (c as i64 - expect as i64).unsigned_abs() < (n / 40) as u64,
                "level {i}: {c} vs ~{expect}"
            );
            at_least -= c;
            // `at_least` now counts keys with level > i, expected n/2^{i+1}.
        }
    }

    #[test]
    fn level_is_monotone_in_threshold() {
        let h = UniformHash::new(&tree().child(8), 4);
        for key in 0..1000 {
            let l5 = h.level(key, 5);
            let l10 = h.level(key, 10);
            assert!(l10 >= l5);
            assert!(l5 <= 5 && l10 <= 10);
            if l5 < 5 {
                assert_eq!(l5, l10);
            }
        }
    }

    #[test]
    fn level_consistent_with_unit() {
        let h = UniformHash::new(&tree().child(11), 4);
        for key in 0..2000 {
            let lvl = h.level(key, 30);
            let u = h.unit(key);
            if lvl < 30 {
                assert!(u < 1.0 / (1u64 << lvl) as f64 * 1.0000001, "key {key}");
                assert!(
                    u >= 1.0 / (1u64 << (lvl + 1)) as f64 * 0.9999999,
                    "key {key}"
                );
            }
        }
    }

    #[test]
    fn eval_batch_matches_scalar() {
        for k in [1usize, 2, 8] {
            let h = KWiseHash::new(&tree().child(20 + k as u64), k);
            for len in [0usize, 1, 7, 8, 9, 16, 65] {
                let keys: Vec<u64> = (0..len as u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9))
                    .collect();
                let mut out = vec![Fp::ZERO; len];
                h.eval_batch(&keys, &mut out);
                for (i, &key) in keys.iter().enumerate() {
                    assert_eq!(out[i], h.eval(key), "k {k}, len {len}, lane {i}");
                }
            }
        }
    }

    #[test]
    fn eval_batch_lane_kernel_matches_oracle() {
        // The 4-lane branch-free Horner kernel must agree with the scalar
        // oracle loop at lane-straddling lengths and at keys whose field
        // embedding sits at the edges of [0, P) — including keys >= P,
        // which fold before entering the recurrence.
        let edge_keys = [0u64, 1, P - 1, P, P + 1, u64::MAX, P / 2, 2, 3, 4];
        for k in [1usize, 2, 5, 12] {
            let h = KWiseHash::new(&tree().child(77), k);
            for len in [0usize, 1, 3, 4, 5, 7, 8, 9, 13] {
                let keys: Vec<u64> = (0..len as u64)
                    .map(|i| edge_keys[i as usize % edge_keys.len()].wrapping_add(i))
                    .collect();
                let mut fast = vec![Fp::ZERO; len];
                h.eval_batch(&keys, &mut fast);
                let mut slow = vec![Fp::ONE; len];
                h.eval_batch_scalar(&keys, &mut slow);
                assert_eq!(fast, slow, "k {k}, len {len}");
            }
        }
    }

    #[test]
    fn bucket_batch_matches_scalar() {
        let h = KWiseHash::new(&tree().child(31), 2);
        for buckets in [1usize, 2, 3, 16, 17, 1024] {
            let keys: Vec<u64> = (0..300).collect();
            let mut out = vec![0usize; keys.len()];
            h.bucket_batch(&keys, buckets, &mut out);
            for (i, &key) in keys.iter().enumerate() {
                assert_eq!(
                    out[i],
                    h.bucket(key, buckets),
                    "buckets {buckets}, key {key}"
                );
            }
        }
    }

    #[test]
    fn fast_bucket_equals_the_128_bit_division() {
        use crate::prng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xB0C);
        let extremes = [0u64, 1, 2, P / 2, P / 2 + 1, P - 2, P - 1];
        let random = (0..2000).map(|_| rng.gen_range(0..P));
        for h in extremes.into_iter().chain(random) {
            for buckets in [1usize, 2, 3, 7, 16, 17, 64, 1024, 1 << 20] {
                let want = ((h as u128 * buckets as u128) / P as u128) as usize;
                assert_eq!(fast_bucket(h, buckets), want, "h {h}, buckets {buckets}");
            }
        }
    }

    #[test]
    fn bucket_batch_covers_extreme_hash_values() {
        // Constant polynomials pin the hash output, exercising the fast
        // division at the edges of [0, P).
        for v in [0u64, 1, P / 2, P - 2, P - 1] {
            let h = KWiseHash::from_coefficients(vec![Fp::new(v)]);
            for buckets in [1usize, 7, 64] {
                let mut out = [0usize; 1];
                h.bucket_batch(&[42], buckets, &mut out);
                assert_eq!(out[0], h.bucket(42, buckets), "v {v}, buckets {buckets}");
            }
        }
    }

    #[test]
    fn level_batch_matches_scalar() {
        let h = UniformHash::new(&tree().child(32), 8);
        for max_level in [0usize, 3, 12, 40] {
            let keys: Vec<u64> = (0..500).collect();
            let mut out = vec![0usize; keys.len()];
            h.level_batch(&keys, max_level, &mut out);
            for (i, &key) in keys.iter().enumerate() {
                assert_eq!(
                    out[i],
                    h.level(key, max_level),
                    "max {max_level}, key {key}"
                );
            }
        }
    }

    #[test]
    fn size_accounting() {
        let h = KWiseHash::new(&tree(), 6);
        assert_eq!(h.size_bytes(), 6 * 8);
        assert_eq!(h.independence(), 6);
    }
}
