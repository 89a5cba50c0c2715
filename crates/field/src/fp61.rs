//! Arithmetic in the Mersenne prime field `F_p`, `p = 2^61 - 1`.
//!
//! The field is large enough to embed every hyperedge index we ever rank
//! (the workspace caps the edge-space size at `2^60`, see
//! `dgs_hypergraph::encoding`), and small enough that a product fits in
//! `u128` with a cheap shift-and-add Mersenne reduction.

/// The field modulus `2^61 - 1` (a Mersenne prime).
pub const P: u64 = (1 << 61) - 1;

/// Lane width of the explicit batch kernels ([`Fp::mul_batch`],
/// [`Fp::add_batch`], [`Fp::sub_batch`], and `KWiseHash::eval_batch`).
///
/// Four `u64` lanes is one AVX2 register (or two NEON registers) worth of
/// field elements; the kernels are written as fixed-width, branch-free
/// blocks over raw `u64`s so the compiler can either vectorize them or at
/// minimum keep four independent reduction chains in flight.
pub const LANES: usize = 4;

/// Branch-free canonicalization of a partially reduced value `s < 2P`.
///
/// If `s < P` then `s - P` wraps around to a huge value and the `min`
/// selects `s`; if `s >= P` the `min` selects `s - P`. Compiles to a
/// single unsigned-min (cmov / `vpminuq`) instead of a compare branch,
/// which is what lets the batch kernels stay straight-line code.
#[inline(always)]
pub(crate) fn canon61(s: u64) -> u64 {
    s.min(s.wrapping_sub(P))
}

/// Branch-free Mersenne-61 product of two canonical values.
///
/// One `u128` widening multiply, fold the top 67 bits onto the low 61
/// (`lo + hi <= 2P - 2`), then [`canon61`]. Exactly [`Fp::mul`] without
/// the conditional subtraction branch.
#[inline(always)]
pub(crate) fn mul61(a: u64, b: u64) -> u64 {
    let prod = a as u128 * b as u128;
    let s = ((prod as u64) & P) + ((prod >> 61) as u64);
    canon61(s)
}

/// Largest magnitude whose inverse [`Fp::small_inv`] reads from a table.
///
/// Sketch cells hold sums of small stream deltas, so the total weight `W`
/// of a one-sparse cell — the value the peeling decoder inverts — is a
/// small signed integer on every simple or lightly weighted stream.
pub const SMALL_INV_BOUND: u64 = 256;

/// `SMALL_INV[w] = w^-1` for `1 <= w <= SMALL_INV_BOUND` (entry 0 unused).
const SMALL_INV: [u64; SMALL_INV_BOUND as usize + 1] = small_inv_table();

/// Builds [`SMALL_INV`] at compile time with the linear-time recurrence
/// `w^-1 = -(P / w) * (P mod w)^-1`: from `P = (P / w) * w + P mod w`,
/// `(P / w) * w = -(P mod w)`, and `P mod w < w` is nonzero since `P` is
/// prime, so every entry only needs an earlier one.
const fn small_inv_table() -> [u64; SMALL_INV_BOUND as usize + 1] {
    let mut table = [0u64; SMALL_INV_BOUND as usize + 1];
    table[1] = 1;
    let mut w = 2;
    while w <= SMALL_INV_BOUND as usize {
        let q = P / w as u64;
        let r = (P % w as u64) as usize;
        let prod = ((q as u128 * table[r] as u128) % P as u128) as u64;
        table[w] = if prod == 0 { 0 } else { P - prod };
        w += 1;
    }
    table
}

/// An element of `F_p` in canonical form (`0 <= value < P`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp(u64);

impl std::fmt::Debug for Fp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fp({})", self.0)
    }
}

impl std::fmt::Display for Fp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[allow(clippy::should_implement_trait)] // plain methods mirror the ops impls below
impl Fp {
    /// The additive identity.
    pub const ZERO: Fp = Fp(0);
    /// The multiplicative identity.
    pub const ONE: Fp = Fp(1);

    /// Builds a field element from an arbitrary `u64`, reducing mod `P`.
    #[inline]
    pub fn new(v: u64) -> Fp {
        // Two-step Mersenne reduction: fold the top bits down, then one
        // conditional subtraction. Handles all u64 inputs including P itself.
        let folded = (v & P) + (v >> 61);
        Fp(if folded >= P { folded - P } else { folded })
    }

    /// Embeds a signed integer (e.g. a stream update delta) into the field.
    #[inline]
    pub fn from_i64(v: i64) -> Fp {
        if v >= 0 {
            Fp::new(v as u64)
        } else {
            Fp::new((-v) as u64).neg()
        }
    }

    /// The canonical representative in `[0, P)`.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Interprets the element as a *small signed* integer, i.e. the unique
    /// representative in `(-P/2, P/2]`. Sketch cells store sums of bounded
    /// stream deltas, so decoding recovers the true integer as long as its
    /// magnitude stays below `P/2` — which our capacity checks guarantee.
    #[inline]
    pub fn to_i64(self) -> i64 {
        if self.0 > P / 2 {
            -((P - self.0) as i64)
        } else {
            self.0 as i64
        }
    }

    /// True iff this is the zero element.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Field addition.
    #[inline]
    pub fn add(self, rhs: Fp) -> Fp {
        let s = self.0 + rhs.0; // < 2^62, no overflow
        Fp(if s >= P { s - P } else { s })
    }

    /// Field subtraction.
    #[inline]
    pub fn sub(self, rhs: Fp) -> Fp {
        let s = self.0.wrapping_sub(rhs.0);
        Fp(if self.0 < rhs.0 { s.wrapping_add(P) } else { s })
    }

    /// Additive inverse.
    #[inline]
    pub fn neg(self) -> Fp {
        if self.0 == 0 {
            Fp(0)
        } else {
            Fp(P - self.0)
        }
    }

    /// Field multiplication via one `u128` product and Mersenne folding.
    #[inline]
    pub fn mul(self, rhs: Fp) -> Fp {
        let prod = self.0 as u128 * rhs.0 as u128;
        let lo = (prod as u64) & P;
        let hi = (prod >> 61) as u64; // < 2^61
        let s = lo + hi; // <= 2P - 2
        Fp(if s >= P { s - P } else { s })
    }

    /// Element-wise in-place product `out[i] = out[i] * rhs[i]`.
    ///
    /// Runs the explicit [`LANES`]-wide kernel: each block widens to
    /// `u128`, folds with the branch-free Mersenne reduction
    /// ([`canon61`]), and carries no data dependence between lanes — the
    /// compiler keeps all four product/fold chains in flight (and can
    /// vectorize the fold arithmetic), which the branchy
    /// call-per-element loop does not achieve. Results are exactly
    /// [`Fp::mul`] per lane; [`Fp::mul_batch_scalar`] is the retained
    /// scalar oracle the property tests compare against.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn mul_batch(out: &mut [Fp], rhs: &[Fp]) {
        assert_eq!(out.len(), rhs.len(), "mul_batch length mismatch");
        let mut chunks = out.chunks_exact_mut(LANES);
        let mut rchunks = rhs.chunks_exact(LANES);
        for (oc, rc) in (&mut chunks).zip(&mut rchunks) {
            for i in 0..LANES {
                oc[i] = Fp(mul61(oc[i].0, rc[i].0));
            }
        }
        for (o, &r) in chunks
            .into_remainder()
            .iter_mut()
            .zip(rchunks.remainder().iter())
        {
            *o = o.mul(r);
        }
    }

    /// Scalar reference loop for [`Fp::mul_batch`] — one branchy
    /// [`Fp::mul`] per element, kept as the property-test oracle for the
    /// lane kernel (and as the readable statement of what the kernel must
    /// compute).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn mul_batch_scalar(out: &mut [Fp], rhs: &[Fp]) {
        assert_eq!(out.len(), rhs.len(), "mul_batch length mismatch");
        for (o, &r) in out.iter_mut().zip(rhs.iter()) {
            *o = o.mul(r);
        }
    }

    /// Element-wise in-place sum `out[i] = out[i] + rhs[i]`.
    ///
    /// Same lane discipline as [`Fp::mul_batch`]: four independent
    /// add-and-[`canon61`] chains per block, no branches. Results are
    /// exactly [`Fp::add`] per lane ([`Fp::add_batch_scalar`] is the
    /// oracle).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn add_batch(out: &mut [Fp], rhs: &[Fp]) {
        assert_eq!(out.len(), rhs.len(), "add_batch length mismatch");
        let mut chunks = out.chunks_exact_mut(LANES);
        let mut rchunks = rhs.chunks_exact(LANES);
        for (oc, rc) in (&mut chunks).zip(&mut rchunks) {
            for i in 0..LANES {
                oc[i] = Fp(canon61(oc[i].0 + rc[i].0));
            }
        }
        for (o, &r) in chunks
            .into_remainder()
            .iter_mut()
            .zip(rchunks.remainder().iter())
        {
            *o = o.add(r);
        }
    }

    /// Scalar reference loop for [`Fp::add_batch`] (property-test oracle).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn add_batch_scalar(out: &mut [Fp], rhs: &[Fp]) {
        assert_eq!(out.len(), rhs.len(), "add_batch length mismatch");
        for (o, &r) in out.iter_mut().zip(rhs.iter()) {
            *o = o.add(r);
        }
    }

    /// Element-wise in-place difference `out[i] = out[i] - rhs[i]`.
    ///
    /// The lane kernel rewrites subtraction as `a + (P - b)` — for
    /// canonical `b < P` the offset lands in `(0, P]`, the sum stays below
    /// `2P`, and one [`canon61`] finishes — so the whole block is
    /// branch-free like the add kernel. Results are exactly [`Fp::sub`]
    /// per lane ([`Fp::sub_batch_scalar`] is the oracle).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn sub_batch(out: &mut [Fp], rhs: &[Fp]) {
        assert_eq!(out.len(), rhs.len(), "sub_batch length mismatch");
        let mut chunks = out.chunks_exact_mut(LANES);
        let mut rchunks = rhs.chunks_exact(LANES);
        for (oc, rc) in (&mut chunks).zip(&mut rchunks) {
            for i in 0..LANES {
                oc[i] = Fp(canon61(oc[i].0 + (P - rc[i].0)));
            }
        }
        for (o, &r) in chunks
            .into_remainder()
            .iter_mut()
            .zip(rchunks.remainder().iter())
        {
            *o = o.sub(r);
        }
    }

    /// Scalar reference loop for [`Fp::sub_batch`] (property-test oracle).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn sub_batch_scalar(out: &mut [Fp], rhs: &[Fp]) {
        assert_eq!(out.len(), rhs.len(), "sub_batch length mismatch");
        for (o, &r) in out.iter_mut().zip(rhs.iter()) {
            *o = o.sub(r);
        }
    }

    /// Lazy-reduction accumulation `acc[i] += Σ_k srcs[k][i]` over plain
    /// `u128` accumulators, deferring the modular reduction to
    /// [`Fp::reduce_u128`].
    ///
    /// Canonical values are `< 2^61`, so a `u128` accumulator absorbs more
    /// than `2^67` summands before overflow — far beyond any sketch fan-in
    /// (the widest sum in this workspace folds one sampler per vertex) —
    /// and up to eight of them sum below `2^64`, so each cell takes one
    /// `u64` sum and one widening add per call. Reading `K` slices per
    /// pass keeps `K` memory streams in flight, which is what the decode
    /// engine's fold of scattered per-vertex tables is bound by. Reducing
    /// once at the end makes the result bit-identical to a chain of
    /// canonical [`Fp::add`]s.
    ///
    /// # Panics
    /// Panics if a slice's length differs from `acc`'s; `K > 8` does not
    /// compile.
    pub fn accumulate_batch<const K: usize>(acc: &mut [u128], srcs: [&[Fp]; K]) {
        const { assert!(K <= 8, "at most eight canonical values fit a u64 sum") };
        for src in &srcs {
            assert_eq!(acc.len(), src.len(), "accumulate_batch length mismatch");
        }
        for (i, a) in acc.iter_mut().enumerate() {
            let mut sum = 0u64;
            for src in &srcs {
                sum += src[i].0;
            }
            *a += sum as u128;
        }
    }

    /// Reduces one lazy `u128` accumulator to canonical form.
    ///
    /// Iterated Mersenne folding: each `(v & P) + (v >> 61)` step shrinks
    /// the value by a factor of ~2^61 while preserving it mod `P`, so two
    /// folds bring any sum of canonical elements under `2 * P` and one
    /// conditional subtraction finishes. Equals the sum of the accumulated
    /// elements under canonical [`Fp::add`].
    #[inline]
    pub fn reduce_u128(mut v: u128) -> Fp {
        const PW: u128 = P as u128;
        while v >> 61 != 0 {
            v = (v & PW) + (v >> 61);
        }
        let r = v as u64;
        Fp(if r >= P { r - P } else { r })
    }

    /// In-place batch inversion (Montgomery's trick): replaces every
    /// element of `vals` with its multiplicative inverse using `3(n-1)`
    /// multiplications plus a single [`Fp::inv`], instead of one ~61-step
    /// Fermat exponentiation per element. `scratch` holds the prefix
    /// products and is cleared on entry; reusing one scratch vector across
    /// calls makes the kernel allocation-free in steady state. Inverses
    /// are unique in a field, so each lane equals [`Fp::inv`] exactly.
    ///
    /// # Panics
    /// Panics if any element is zero (same contract as [`Fp::inv`]).
    pub fn inv_batch(vals: &mut [Fp], scratch: &mut Vec<Fp>) {
        scratch.clear();
        if vals.is_empty() {
            return;
        }
        scratch.reserve(vals.len());
        let mut acc = Fp::ONE;
        for v in vals.iter() {
            scratch.push(acc);
            acc = acc.mul(*v); // zero input surfaces in the inv() below
        }
        let mut tail = acc.inv();
        for i in (0..vals.len()).rev() {
            let orig = vals[i];
            vals[i] = tail.mul(scratch[i]);
            tail = tail.mul(orig);
        }
    }

    /// Exponentiation by square-and-multiply.
    pub fn pow(self, mut exp: u64) -> Fp {
        let mut base = self;
        let mut acc = Fp::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.mul(base);
            exp >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem.
    ///
    /// # Panics
    /// Panics on the zero element (a programmer error in this codebase).
    pub fn inv(self) -> Fp {
        assert!(!self.is_zero(), "attempted to invert Fp::ZERO");
        self.pow(P - 2)
    }

    /// The inverse of a small signed element, read from a compile-time
    /// table: `Some(self.inv())` when the element's small signed value
    /// (see [`to_i64`](Self::to_i64)) is nonzero with magnitude at most
    /// [`SMALL_INV_BOUND`], `None` otherwise (zero included). Inverses are
    /// unique, so a table hit equals the Fermat inverse exactly, and
    /// `(-w)^-1 = -(w^-1)` covers the negative half.
    #[inline]
    pub fn small_inv(self) -> Option<Fp> {
        if self.0 == 0 {
            None
        } else if self.0 <= SMALL_INV_BOUND {
            Some(Fp(SMALL_INV[self.0 as usize]))
        } else if P - self.0 <= SMALL_INV_BOUND {
            Some(Fp(SMALL_INV[(P - self.0) as usize]).neg())
        } else {
            None
        }
    }

    /// `self / rhs`; panics if `rhs` is zero.
    pub fn div(self, rhs: Fp) -> Fp {
        self.mul(rhs.inv())
    }
}

impl std::ops::Add for Fp {
    type Output = Fp;
    #[inline]
    fn add(self, rhs: Fp) -> Fp {
        Fp::add(self, rhs)
    }
}

impl std::ops::Sub for Fp {
    type Output = Fp;
    #[inline]
    fn sub(self, rhs: Fp) -> Fp {
        Fp::sub(self, rhs)
    }
}

impl std::ops::Mul for Fp {
    type Output = Fp;
    #[inline]
    fn mul(self, rhs: Fp) -> Fp {
        Fp::mul(self, rhs)
    }
}

impl std::ops::Neg for Fp {
    type Output = Fp;
    #[inline]
    fn neg(self) -> Fp {
        Fp::neg(self)
    }
}

impl std::ops::AddAssign for Fp {
    #[inline]
    fn add_assign(&mut self, rhs: Fp) {
        *self = Fp::add(*self, rhs);
    }
}

impl std::ops::SubAssign for Fp {
    #[inline]
    fn sub_assign(&mut self, rhs: Fp) {
        *self = Fp::sub(*self, rhs);
    }
}

impl std::ops::MulAssign for Fp {
    #[inline]
    fn mul_assign(&mut self, rhs: Fp) {
        *self = Fp::mul(*self, rhs);
    }
}

impl From<u64> for Fp {
    fn from(v: u64) -> Fp {
        Fp::new(v)
    }
}

impl From<i64> for Fp {
    fn from(v: i64) -> Fp {
        Fp::from_i64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::*;

    #[test]
    fn constants() {
        assert_eq!(Fp::ZERO.value(), 0);
        assert_eq!(Fp::ONE.value(), 1);
        assert!(Fp::ZERO.is_zero());
        assert!(!Fp::ONE.is_zero());
    }

    #[test]
    fn reduction_of_p_is_zero() {
        assert_eq!(Fp::new(P), Fp::ZERO);
        assert_eq!(Fp::new(P + 1), Fp::ONE);
        assert_eq!(Fp::new(u64::MAX).value(), u64::MAX % P);
    }

    #[test]
    fn signed_embedding_round_trips() {
        for v in [-5i64, -1, 0, 1, 7, 1 << 40, -(1 << 40)] {
            assert_eq!(Fp::from_i64(v).to_i64(), v, "v = {v}");
        }
    }

    #[test]
    fn negation_and_subtraction_agree() {
        let a = Fp::new(123_456_789);
        let b = Fp::new(987_654_321);
        assert_eq!(a.sub(b), a.add(b.neg()));
        assert_eq!(b.sub(a).add(a.sub(b)), Fp::ZERO);
    }

    #[test]
    fn small_multiplication_table() {
        for a in 0u64..20 {
            for b in 0u64..20 {
                assert_eq!(Fp::new(a).mul(Fp::new(b)).value(), a * b);
            }
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let base = Fp::new(37);
        let mut acc = Fp::ONE;
        for e in 0..50u64 {
            assert_eq!(base.pow(e), acc, "exponent {e}");
            acc = acc.mul(base);
        }
    }

    #[test]
    fn fermat_inverse() {
        for v in [1u64, 2, 3, 1000, P - 1, 1 << 60] {
            let x = Fp::new(v);
            assert_eq!(x.mul(x.inv()), Fp::ONE, "v = {v}");
        }
    }

    #[test]
    fn small_inverse_table_matches_fermat() {
        for w in 1..=SMALL_INV_BOUND as i64 {
            for v in [w, -w] {
                let x = Fp::from_i64(v);
                assert_eq!(x.small_inv(), Some(x.inv()), "w = {v}");
            }
        }
        // Outside the bound (either sign) and zero fall back to the caller.
        let past = SMALL_INV_BOUND as i64 + 1;
        for v in [0, past, -past, 1 << 40, -(1 << 40)] {
            assert_eq!(Fp::from_i64(v).small_inv(), None, "w = {v}");
        }
    }

    #[test]
    #[should_panic(expected = "invert Fp::ZERO")]
    fn inverting_zero_panics() {
        let _ = Fp::ZERO.inv();
    }

    fn rand_fp(rng: &mut StdRng) -> Fp {
        Fp::new(rng.gen_range(0..P))
    }

    // Randomized field-law checks: 256 deterministic trials each, covering
    // the edge of the modulus via the uniform draw over [0, P).

    #[test]
    fn add_and_mul_commute() {
        let mut rng = StdRng::seed_from_u64(0xF1);
        for _ in 0..256 {
            let (a, b) = (rand_fp(&mut rng), rand_fp(&mut rng));
            assert_eq!(a.add(b), b.add(a));
            assert_eq!(a.mul(b), b.mul(a));
        }
    }

    #[test]
    fn add_and_mul_associate() {
        let mut rng = StdRng::seed_from_u64(0xF2);
        for _ in 0..256 {
            let (a, b, c) = (rand_fp(&mut rng), rand_fp(&mut rng), rand_fp(&mut rng));
            assert_eq!(a.add(b).add(c), a.add(b.add(c)));
            assert_eq!(a.mul(b).mul(c), a.mul(b.mul(c)));
        }
    }

    #[test]
    fn mul_distributes() {
        let mut rng = StdRng::seed_from_u64(0xF3);
        for _ in 0..256 {
            let (a, b, c) = (rand_fp(&mut rng), rand_fp(&mut rng), rand_fp(&mut rng));
            assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
        }
    }

    #[test]
    fn sub_is_add_neg() {
        let mut rng = StdRng::seed_from_u64(0xF4);
        for _ in 0..256 {
            let (a, b) = (rand_fp(&mut rng), rand_fp(&mut rng));
            assert_eq!(a.sub(b), a.add(b.neg()));
        }
    }

    #[test]
    fn nonzero_inverse_round_trips() {
        let mut rng = StdRng::seed_from_u64(0xF5);
        for _ in 0..256 {
            let x = Fp::new(rng.gen_range(1..P));
            assert_eq!(x.mul(x.inv()), Fp::ONE);
        }
    }

    #[test]
    fn mul_matches_u128_reference() {
        let mut rng = StdRng::seed_from_u64(0xF6);
        for _ in 0..256 {
            let (a, b) = (rng.gen_range(0..P), rng.gen_range(0..P));
            let expect = ((a as u128 * b as u128) % P as u128) as u64;
            assert_eq!(Fp::new(a).mul(Fp::new(b)).value(), expect);
        }
    }

    #[test]
    fn mul_batch_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(0xF8);
        // Lengths straddling the internal lane width, including 0 and 1.
        for len in [0usize, 1, 7, 8, 9, 16, 33] {
            let a: Vec<Fp> = (0..len).map(|_| rand_fp(&mut rng)).collect();
            let b: Vec<Fp> = (0..len).map(|_| rand_fp(&mut rng)).collect();
            let mut out = a.clone();
            Fp::mul_batch(&mut out, &b);
            for i in 0..len {
                assert_eq!(out[i], a[i].mul(b[i]), "len {len}, lane {i}");
            }
        }
    }

    #[test]
    fn add_and_sub_batch_match_scalar() {
        let mut rng = StdRng::seed_from_u64(0xF9);
        for len in [0usize, 1, 7, 8, 9, 16, 33] {
            let a: Vec<Fp> = (0..len).map(|_| rand_fp(&mut rng)).collect();
            let b: Vec<Fp> = (0..len).map(|_| rand_fp(&mut rng)).collect();
            let mut sum = a.clone();
            Fp::add_batch(&mut sum, &b);
            let mut diff = a.clone();
            Fp::sub_batch(&mut diff, &b);
            for i in 0..len {
                assert_eq!(sum[i], a[i].add(b[i]), "add len {len}, lane {i}");
                assert_eq!(diff[i], a[i].sub(b[i]), "sub len {len}, lane {i}");
            }
        }
    }

    #[test]
    fn lane_kernels_match_scalar_oracles() {
        // The explicit 4-lane kernels must agree with the retained branchy
        // scalar loops on every lane at lane-straddling lengths.
        let mut rng = StdRng::seed_from_u64(0xFC);
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 64, 257] {
            let a: Vec<Fp> = (0..len).map(|_| rand_fp(&mut rng)).collect();
            let b: Vec<Fp> = (0..len).map(|_| rand_fp(&mut rng)).collect();
            for (kernel, oracle) in [
                (
                    Fp::mul_batch as fn(&mut [Fp], &[Fp]),
                    Fp::mul_batch_scalar as fn(&mut [Fp], &[Fp]),
                ),
                (Fp::add_batch, Fp::add_batch_scalar),
                (Fp::sub_batch, Fp::sub_batch_scalar),
            ] {
                let mut fast = a.clone();
                kernel(&mut fast, &b);
                let mut slow = a.clone();
                oracle(&mut slow, &b);
                assert_eq!(fast, slow, "len {len}");
            }
        }
    }

    #[test]
    fn lane_kernels_handle_edge_values() {
        // Exercise the branch-free canon61 reduction where the branchy
        // scalar path takes each of its two branches: operands at 0, 1,
        // P/2, P-1 in all pairings, padded to cover full lane blocks and
        // the remainder loop.
        let edges = [0u64, 1, 2, P / 2, P / 2 + 1, P - 2, P - 1];
        let mut a = Vec::new();
        let mut b = Vec::new();
        for &x in &edges {
            for &y in &edges {
                a.push(Fp::new(x));
                b.push(Fp::new(y));
            }
        }
        // 49 elements: 12 full lane blocks plus a remainder of 1.
        let (mut mul, mut add, mut sub) = (a.clone(), a.clone(), a.clone());
        Fp::mul_batch(&mut mul, &b);
        Fp::add_batch(&mut add, &b);
        Fp::sub_batch(&mut sub, &b);
        for i in 0..a.len() {
            assert_eq!(mul[i], a[i].mul(b[i]), "mul lane {i}");
            assert_eq!(add[i], a[i].add(b[i]), "add lane {i}");
            assert_eq!(sub[i], a[i].sub(b[i]), "sub lane {i}");
        }
    }

    #[test]
    fn lazy_accumulation_matches_chained_adds() {
        let mut rng = StdRng::seed_from_u64(0xFA);
        for len in [1usize, 7, 8, 33] {
            for terms in [1usize, 2, 5, 13, 64] {
                let slices: Vec<Vec<Fp>> = (0..terms)
                    .map(|_| (0..len).map(|_| rand_fp(&mut rng)).collect())
                    .collect();
                // One, four and eight slices per pass, as the fold uses.
                let mut acc = vec![0u128; len];
                let mut rest = &slices[..];
                while !rest.is_empty() {
                    rest = match rest {
                        [a, b, c, d, e, f, g, h, tail @ ..] => {
                            Fp::accumulate_batch(
                                &mut acc,
                                [a, b, c, d, e, f, g, h].map(|v| &v[..]),
                            );
                            tail
                        }
                        [a, b, c, d, tail @ ..] => {
                            Fp::accumulate_batch(&mut acc, [a, b, c, d].map(|v| &v[..]));
                            tail
                        }
                        [a, tail @ ..] => {
                            Fp::accumulate_batch(&mut acc, [&a[..]]);
                            tail
                        }
                        [] => unreachable!(),
                    };
                }
                for i in 0..len {
                    let chained = slices.iter().fold(Fp::ZERO, |a, s| a.add(s[i]));
                    let lazy = Fp::reduce_u128(acc[i]);
                    assert_eq!(lazy, chained, "len {len}, terms {terms}, lane {i}");
                }
            }
        }
    }

    #[test]
    fn eight_way_accumulation_of_the_largest_value_cannot_overflow() {
        let top = [Fp::new(P - 1); 3];
        let mut acc = [0u128; 3];
        Fp::accumulate_batch(&mut acc, [&top[..]; 8]);
        assert_eq!(Fp::reduce_u128(acc[0]), Fp::new(P - 1).mul(Fp::new(8)));
    }

    #[test]
    fn reduce_u128_handles_extremes() {
        assert_eq!(Fp::reduce_u128(0), Fp::ZERO);
        assert_eq!(Fp::reduce_u128(P as u128), Fp::ZERO);
        assert_eq!(Fp::reduce_u128(P as u128 + 1), Fp::ONE);
        // 2^67 summands of the max canonical value still reduce correctly.
        let v = (P as u128 - 1) << 67;
        let expect = Fp::new(P - 1).mul(Fp::new(2).pow(67));
        assert_eq!(Fp::reduce_u128(v), expect);
        assert_eq!(
            Fp::reduce_u128(u128::MAX),
            Fp::new((u128::MAX % P as u128) as u64)
        );
    }

    #[test]
    fn inv_batch_matches_fermat() {
        let mut rng = StdRng::seed_from_u64(0xFB);
        let mut scratch = Vec::new();
        for len in [0usize, 1, 2, 7, 8, 33] {
            let a: Vec<Fp> = (0..len).map(|_| Fp::new(rng.gen_range(1..P))).collect();
            let mut inv = a.clone();
            Fp::inv_batch(&mut inv, &mut scratch);
            for i in 0..len {
                assert_eq!(inv[i], a[i].inv(), "len {len}, lane {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invert Fp::ZERO")]
    fn inv_batch_panics_on_zero() {
        let mut vals = vec![Fp::ONE, Fp::ZERO, Fp::new(7)];
        Fp::inv_batch(&mut vals, &mut Vec::new());
    }

    #[test]
    fn signed_round_trip() {
        let mut rng = StdRng::seed_from_u64(0xF7);
        for _ in 0..256 {
            let v = rng.gen_range(-(P as i64 / 2)..=(P as i64 / 2));
            assert_eq!(Fp::from_i64(v).to_i64(), v);
        }
    }
}
