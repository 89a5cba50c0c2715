//! Polynomial fingerprints for sparse-vector verification.
//!
//! A one-sparse detector (see `dgs-sketch`) must distinguish a truly
//! one-sparse update history from a collision of several nonzero
//! coordinates. Following the standard construction (and Jowhari et al.,
//! which the paper uses as its sampler), we keep the fingerprint
//!
//! ```text
//!     F = sum_i  c_i * z^i   (mod p)
//! ```
//!
//! for a uniformly random evaluation point `z`, alongside the plain sum
//! `W = sum c_i` and the index-weighted sum `S = sum c_i * i`. If the vector
//! is one-sparse with support `{j}` then `j = S/W` and `F = W * z^j`; if it is
//! not one-sparse, the verification `F == W * z^(S/W)` fails unless `z` is a
//! root of a nonzero polynomial of degree at most `d`, which happens with
//! probability at most `d / p` — utterly negligible for `d < 2^60`.

use crate::fp61::Fp;
use crate::seed::SeedTree;

/// A reusable fingerprint evaluator with a fixed random point `z`.
#[derive(Clone, Debug)]
pub struct Fingerprinter {
    z: Fp,
}

impl Fingerprinter {
    /// Draws the evaluation point from the seed tree. The point is forced
    /// nonzero (z = 0 would collapse all fingerprints of index > 0).
    pub fn new(seeds: &SeedTree) -> Fingerprinter {
        let mut raw = seeds.value_at(0);
        let mut salt = 1;
        let mut z = Fp::new(raw);
        while z.is_zero() || z == Fp::ONE {
            raw = seeds.value_at(salt);
            z = Fp::new(raw);
            salt += 1;
        }
        Fingerprinter { z }
    }

    /// The contribution of an update `(index, delta)` to the fingerprint:
    /// `delta * z^index`.
    #[inline]
    pub fn term(&self, index: u64, delta: i64) -> Fp {
        Fp::from_i64(delta).mul(self.z.pow(index))
    }

    /// `weight * z^index` — the expected fingerprint of a one-sparse vector.
    #[inline]
    pub fn expected(&self, index: u64, weight: Fp) -> Fp {
        weight.mul(self.z.pow(index))
    }

    /// Builds a windowed power table for `z`, valid for every
    /// `index <= max_index`. The table costs ~16 multiplications per 4 bits
    /// of `max_index` to build and turns each subsequent power `z^index`
    /// into at most `ceil(bits/4)` multiplications — the batch ingest path
    /// builds one per (level, batch) and amortizes it over all keys, versus
    /// the ~61-step square-and-multiply ladder [`term`](Self::term) pays per
    /// call.
    pub fn power_table(&self, max_index: u64) -> PowTable {
        let bits = 64 - max_index.leading_zeros() as usize;
        let windows = bits.div_ceil(WINDOW_BITS).max(1);
        let mut table = Vec::with_capacity(windows);
        // base = z^(16^w) for window w.
        let mut base = self.z;
        for _ in 0..windows {
            let mut row = [Fp::ONE; WINDOW_SIZE];
            for d in 1..WINDOW_SIZE {
                row[d] = row[d - 1].mul(base);
            }
            base = row[WINDOW_SIZE - 1].mul(base);
            table.push(row);
        }
        PowTable {
            windows: table,
            max_index,
        }
    }

    /// The evaluation point (exposed for tests and persistence).
    pub fn point(&self) -> Fp {
        self.z
    }

    /// Rebuilds from a persisted evaluation point.
    ///
    /// # Panics
    /// Panics on the degenerate points 0 and 1.
    pub fn from_point(z: Fp) -> Fingerprinter {
        assert!(!z.is_zero() && z != Fp::ONE, "degenerate fingerprint point");
        Fingerprinter { z }
    }

    /// Memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Fp>()
    }
}

const WINDOW_BITS: usize = 4;
const WINDOW_SIZE: usize = 1 << WINDOW_BITS;

/// A transient table of powers of a fingerprint point `z`, in 4-bit windows:
/// `windows[w][d] = z^(d * 16^w)`. Built by [`Fingerprinter::power_table`]
/// for one batch of updates and dropped afterwards, so it costs no
/// persistent memory no matter how many fingerprinters a sketch holds.
#[derive(Clone, Debug)]
pub struct PowTable {
    windows: Vec<[Fp; WINDOW_SIZE]>,
    max_index: u64,
}

impl PowTable {
    /// `z^index`; exactly equal to `Fingerprinter::point().pow(index)`.
    ///
    /// # Panics
    /// Debug-asserts `index` is within the range the table was built for.
    #[inline]
    pub fn pow(&self, index: u64) -> Fp {
        debug_assert!(
            index <= self.max_index,
            "index {index} exceeds power-table bound {}",
            self.max_index
        );
        let mut acc = Fp::ONE;
        let mut rest = index;
        for row in &self.windows {
            let digit = (rest & (WINDOW_SIZE as u64 - 1)) as usize;
            if digit != 0 {
                acc = acc.mul(row[digit]);
            }
            rest >>= WINDOW_BITS;
            if rest == 0 {
                break;
            }
        }
        acc
    }

    /// The fingerprint contribution `delta * z^index`; exactly equal to
    /// [`Fingerprinter::term`].
    #[inline]
    pub fn term(&self, index: u64, delta: i64) -> Fp {
        Fp::from_i64(delta).mul(self.pow(index))
    }

    /// `weight * z^index` — exactly [`Fingerprinter::expected`], with the
    /// power read from the table. This is the peeling decoder's one-sparse
    /// verification.
    #[inline]
    pub fn expected(&self, index: u64, weight: Fp) -> Fp {
        weight.mul(self.pow(index))
    }

    /// The largest index the table can exponentiate.
    pub fn max_index(&self) -> u64 {
        self.max_index
    }

    /// The point `z` the table powers (`windows[0][1] = z^1`).
    pub fn point(&self) -> Fp {
        self.windows[0][1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fper(label: u64) -> Fingerprinter {
        Fingerprinter::new(&SeedTree::new(7).child(label))
    }

    #[test]
    fn deterministic() {
        assert_eq!(fper(1).point(), fper(1).point());
        assert_ne!(fper(1).point(), fper(2).point());
    }

    #[test]
    fn one_sparse_history_verifies() {
        let f = fper(3);
        // Insert index 42 three times, delete once: net weight 2.
        let acc = f.term(42, 1) + f.term(42, 1) + f.term(42, 1) + f.term(42, -1);
        assert_eq!(acc, f.expected(42, Fp::from_i64(2)));
    }

    #[test]
    fn cancelling_history_fingerprints_to_zero() {
        let f = fper(4);
        let acc = f.term(10, 5) + f.term(10, -5) + f.term(77, 2) + f.term(77, -2);
        assert_eq!(acc, Fp::ZERO);
    }

    #[test]
    fn collision_does_not_verify() {
        let f = fper(5);
        // Two live coordinates pretending to be one: S/W would give a bogus
        // index; check against a handful of candidate indices.
        let acc = f.term(3, 1) + f.term(9, 1);
        for candidate in [3u64, 6, 9, 12] {
            assert_ne!(
                acc,
                f.expected(candidate, Fp::from_i64(2)),
                "candidate {candidate} wrongly verified"
            );
        }
    }

    #[test]
    fn large_indices_work() {
        let f = fper(6);
        let idx = (1u64 << 59) + 12345;
        let acc = f.term(idx, 7);
        assert_eq!(acc, f.expected(idx, Fp::from_i64(7)));
        assert_ne!(acc, f.expected(idx + 1, Fp::from_i64(7)));
    }

    #[test]
    fn power_table_matches_pow() {
        let f = fper(8);
        for max in [0u64, 1, 15, 16, 255, (1 << 20) + 3, (1 << 59) + 9] {
            let table = f.power_table(max);
            let probes = [0u64, 1, 2, 15, 16, 17, max / 3, max.saturating_sub(1), max];
            for &idx in probes.iter().filter(|&&i| i <= max) {
                assert_eq!(table.pow(idx), f.point().pow(idx), "max {max}, idx {idx}");
            }
        }
    }

    #[test]
    fn power_table_term_matches_scalar_term() {
        let f = fper(9);
        let table = f.power_table(1 << 30);
        for (idx, delta) in [(0u64, 1i64), (5, -3), (1 << 20, 7), ((1 << 30) - 1, -1)] {
            assert_eq!(table.term(idx, delta), f.term(idx, delta), "idx {idx}");
        }
    }

    #[test]
    fn power_table_expected_matches_fingerprinter() {
        let f = fper(10);
        let max = (1u64 << 15) - 1;
        let table = f.power_table(max);
        assert_eq!(table.point(), f.point());
        for idx in [0u64, 1, 16, 4097, max - 1, max] {
            for w in [1i64, -1, 2, -7, 300] {
                let weight = Fp::from_i64(w);
                assert_eq!(
                    table.expected(idx, weight),
                    f.expected(idx, weight),
                    "idx {idx}, w {w}"
                );
            }
        }
    }

    #[test]
    fn point_never_trivial() {
        for s in 0..200 {
            let f = Fingerprinter::new(&SeedTree::new(s));
            assert!(!f.point().is_zero());
            assert_ne!(f.point(), Fp::ONE);
        }
    }
}
