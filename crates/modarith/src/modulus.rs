//! Word-sized prime moduli with precomputed reduction constants.

use crate::primes;

/// A prime modulus `q < 2^31` with precomputed constants for every reduction
/// strategy used in the F1 datapath and its software baseline.
///
/// All moduli used by the accelerator are NTT-friendly primes
/// (`q ≡ 1 mod 2N` for the largest supported `N`); see
/// [`crate::primes::ntt_friendly_primes`]. Keeping `q < 2^31` leaves one bit
/// of headroom so that lazy sums of two residues never overflow a `u32` and
/// products fit comfortably in a `u64`.
///
/// The struct is `Copy` and small; clone it freely into hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    /// The modulus value.
    q: u32,
    /// Barrett constant: `floor(2^64 / q)`.
    barrett_mu: u64,
    /// Montgomery constant: `-q^{-1} mod 2^32`.
    mont_qinv_neg: u32,
    /// Montgomery constant: `2^64 mod q` (to convert into Montgomery form).
    mont_r2: u32,
    /// Word-level Montgomery constant: `-q^{-1} mod 2^16`.
    word_qinv_neg: u16,
    /// `2^32 mod q`, used to undo the `2^{-32}` factor of word-level designs.
    r_mod_q: u32,
}

impl Modulus {
    /// Creates a modulus and precomputes all reduction constants.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not an odd prime in `(2, 2^31)`. Primality is
    /// checked with a deterministic Miller–Rabin test.
    pub fn new(q: u32) -> Self {
        assert!(q > 2 && q < (1 << 31), "modulus must be in (2, 2^31): {q}");
        assert!(q % 2 == 1, "modulus must be odd: {q}");
        assert!(primes::is_prime(q as u64), "modulus must be prime: {q}");
        // mu = floor(2^64/q); floor((2^64-1)/q) is identical because an odd
        // prime q never divides 2^64.
        let barrett_mu = u64::MAX / q as u64;
        let mont_qinv = inv_mod_2_32(q);
        let mont_qinv_neg = mont_qinv.wrapping_neg();
        let r_mod_q = (((1u64 << 32) % q as u64) as u32) % q;
        let mont_r2 = ((r_mod_q as u64 * r_mod_q as u64) % q as u64) as u32;
        let word_qinv_neg = (mont_qinv_neg & 0xFFFF) as u16;
        Self { q, barrett_mu, mont_qinv_neg, mont_r2, word_qinv_neg, r_mod_q }
    }

    /// The modulus value.
    #[inline(always)]
    pub fn value(&self) -> u32 {
        self.q
    }

    /// `floor(2^64 / q)`, the Barrett reciprocal.
    #[inline(always)]
    pub fn barrett_mu(&self) -> u64 {
        self.barrett_mu
    }

    /// `-q^{-1} mod 2^32`, the Montgomery folding constant.
    #[inline(always)]
    pub fn mont_qinv_neg(&self) -> u32 {
        self.mont_qinv_neg
    }

    /// `2^64 mod q`, used to enter Montgomery form.
    #[inline(always)]
    pub fn mont_r2(&self) -> u32 {
        self.mont_r2
    }

    /// `-q^{-1} mod 2^16`, the word-level Montgomery folding constant.
    ///
    /// For FHE-friendly moduli (`q ≡ 1 mod 2^16`) this equals `0xFFFF`,
    /// i.e. multiplication by it degenerates to negation — the hardware
    /// simplification of §5.3.
    #[inline(always)]
    pub fn word_qinv_neg(&self) -> u16 {
        self.word_qinv_neg
    }

    /// `2^32 mod q`.
    #[inline(always)]
    pub fn r_mod_q(&self) -> u32 {
        self.r_mod_q
    }

    /// True if `q ≡ 1 (mod 2n)`, i.e. a negacyclic NTT of size `n` exists.
    pub fn supports_ntt(&self, n: usize) -> bool {
        let two_n = 2 * n as u64;
        (self.q as u64 - 1).is_multiple_of(two_n)
    }

    /// True if the modulus satisfies the FHE-friendly condition of §5.3
    /// (our sign convention: `q ≡ 1 mod 2^16`; see DESIGN.md §2.7).
    pub fn is_fhe_friendly(&self) -> bool {
        self.q & 0xFFFF == 1
    }

    /// Modular addition. Inputs must already be reduced.
    #[inline(always)]
    pub fn add(&self, a: u32, b: u32) -> u32 {
        debug_assert!(a < self.q && b < self.q);
        let s = a + b;
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }

    /// Modular subtraction. Inputs must already be reduced.
    #[inline(always)]
    pub fn sub(&self, a: u32, b: u32) -> u32 {
        debug_assert!(a < self.q && b < self.q);
        let (d, borrow) = a.overflowing_sub(b);
        if borrow {
            d.wrapping_add(self.q)
        } else {
            d
        }
    }

    /// Modular negation. Input must already be reduced.
    #[inline(always)]
    pub fn neg(&self, a: u32) -> u32 {
        debug_assert!(a < self.q);
        if a == 0 {
            0
        } else {
            self.q - a
        }
    }

    /// Modular multiplication via Barrett reduction (the software default).
    #[inline(always)]
    pub fn mul(&self, a: u32, b: u32) -> u32 {
        debug_assert!(a < self.q && b < self.q);
        self.reduce_u64(a as u64 * b as u64)
    }

    /// Reduces a 64-bit value modulo `q`, correct over the full `u64`
    /// range.
    ///
    /// The fast path is Barrett reduction, valid for `x < 2^63`: there
    /// the quotient estimate `t = floor(x * mu / 2^64)` with
    /// `mu = floor(2^64/q)` is off by at most 1, so a single conditional
    /// subtract canonicalizes. Every hot caller stays far inside that
    /// bound — residue products are `< q² < 2^62` (`q < 2^31` is enforced
    /// by [`Modulus::new`]) and the key-switch's lazy `u64` accumulators
    /// are folded before they can reach `2^63` — so the `x ≥ 2^63` fallback is a
    /// `#[cold]` plain division rather than a debug-only precondition:
    /// release builds reduce correctly for any input instead of silently
    /// returning garbage.
    #[inline(always)]
    pub fn reduce_u64(&self, x: u64) -> u32 {
        if x >= 1 << 63 {
            return self.reduce_u64_wide(x);
        }
        let t = ((x as u128 * self.barrett_mu as u128) >> 64) as u64;
        let r = x - t * self.q as u64;
        let q = self.q as u64;
        debug_assert!(r < 2 * q);
        (if r >= q { r - q } else { r }) as u32
    }

    /// Out-of-line exact reduction for `x ≥ 2^63`, where the Barrett
    /// quotient estimate can be off by more than 1. No hot path reaches
    /// this; keeping it `#[cold]` keeps the branch free on the fast path.
    #[cold]
    fn reduce_u64_wide(&self, x: u64) -> u32 {
        (x % self.q as u64) as u32
    }

    /// Modular exponentiation by squaring.
    pub fn pow(&self, mut base: u32, mut exp: u64) -> u32 {
        base %= self.q;
        let mut acc: u32 = 1 % self.q;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse via Fermat's little theorem (`q` is prime).
    ///
    /// # Panics
    ///
    /// Panics if `a == 0`.
    pub fn inv(&self, a: u32) -> u32 {
        assert!(!a.is_multiple_of(self.q), "zero has no modular inverse");
        self.pow(a, self.q as u64 - 2)
    }

    /// Finds a primitive `order`-th root of unity modulo `q`.
    ///
    /// `order` must be a power of two dividing `q - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `order` does not divide `q - 1` or is not a power of two.
    pub fn primitive_root_of_unity(&self, order: u64) -> u32 {
        assert!(order.is_power_of_two(), "order must be a power of two");
        assert_eq!((self.q as u64 - 1) % order, 0, "order must divide q-1");
        let cofactor = (self.q as u64 - 1) / order;
        // Deterministic search: try small generator candidates g and return
        // g^cofactor once it has exact multiplicative order `order`.
        for g in 2..self.q {
            let w = self.pow(g, cofactor);
            if order == 1 {
                return 1;
            }
            if self.pow(w, order / 2) != 1 {
                return w;
            }
        }
        unreachable!("a primitive root exists for every prime modulus")
    }

    /// Converts a signed 64-bit value into a reduced residue.
    #[inline]
    pub fn reduce_i64(&self, x: i64) -> u32 {
        let q = self.q as i64;
        let r = x.rem_euclid(q);
        r as u32
    }

    /// Lifts a residue to the centered representative in `(-q/2, q/2]`.
    #[inline]
    pub fn center(&self, a: u32) -> i64 {
        debug_assert!(a < self.q);
        if a as u64 > (self.q as u64) / 2 {
            a as i64 - self.q as i64
        } else {
            a as i64
        }
    }
}

/// Computes `q^{-1} mod 2^32` for odd `q` by Newton–Hensel iteration.
fn inv_mod_2_32(q: u32) -> u32 {
    debug_assert!(q % 2 == 1);
    // x_{k+1} = x_k (2 - q x_k) doubles correct low bits each step.
    let mut x: u32 = q; // correct to 3 bits for odd q
    for _ in 0..5 {
        x = x.wrapping_mul(2u32.wrapping_sub(q.wrapping_mul(x)));
    }
    debug_assert_eq!(q.wrapping_mul(x), 1);
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u32 = 0x3FFC_0001; // 2^30 - 2^18 + 1, prime, q ≡ 1 mod 2^18

    #[test]
    fn constants_are_consistent() {
        let m = Modulus::new(Q);
        assert_eq!(m.value(), Q);
        assert_eq!(m.barrett_mu(), u64::MAX / Q as u64);
        assert_eq!(Q.wrapping_mul(m.mont_qinv_neg()), u32::MAX); // q * (-q^{-1}) ≡ -1 (mod 2^32)
        assert_eq!(Q.wrapping_mul(m.mont_qinv_neg().wrapping_neg()), 1);
        assert_eq!(m.r_mod_q() as u64, (1u64 << 32) % Q as u64);
    }

    #[test]
    fn reduce_u64_is_exact_across_the_barrett_boundary() {
        // The Barrett fast path covers x < 2^63; beyond it the #[cold]
        // fallback must keep reduce_u64 exact all the way to u64::MAX.
        for q in [Q, 999_983, 3, 0x7FFF_FFED] {
            let m = Modulus::new(q);
            for x in [
                0u64,
                q as u64 - 1,
                q as u64 * q as u64, // largest residue-product shape
                (1 << 63) - 1,       // last fast-path value
                1 << 63,             // first fallback value
                (1 << 63) + 12345,
                u64::MAX - 1,
                u64::MAX,
            ] {
                assert_eq!(m.reduce_u64(x) as u64, x % q as u64, "q={q} x={x}");
            }
        }
    }

    #[test]
    fn fhe_friendly_detection() {
        let m = Modulus::new(Q);
        assert!(m.is_fhe_friendly());
        assert_eq!(m.word_qinv_neg(), 0xFFFF);
        let m2 = Modulus::new(999_983); // prime, not ≡ 1 mod 2^16
        assert!(!m2.is_fhe_friendly());
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        let m = Modulus::new(Q);
        for (a, b) in [(0u32, 0u32), (1, Q - 1), (Q / 2, Q / 2 + 1), (12345, 67890)] {
            assert_eq!(m.sub(m.add(a, b), b), a);
            assert_eq!(m.add(m.neg(a), a), 0);
        }
    }

    #[test]
    fn mul_matches_u64_reference() {
        let m = Modulus::new(Q);
        let cases = [(0, 0), (1, 1), (Q - 1, Q - 1), (123_456_789 % Q, 987_654_321 % Q)];
        for (a, b) in cases {
            assert_eq!(m.mul(a, b), ((a as u64 * b as u64) % Q as u64) as u32);
        }
    }

    #[test]
    fn pow_and_inv() {
        let m = Modulus::new(Q);
        assert_eq!(m.pow(3, 0), 1);
        assert_eq!(m.pow(3, 1), 3);
        assert_eq!(m.pow(3, Q as u64 - 1), 1, "Fermat");
        let a = 987_654_321 % Q;
        assert_eq!(m.mul(a, m.inv(a)), 1);
    }

    #[test]
    fn primitive_roots_have_exact_order() {
        let m = Modulus::new(Q);
        for log_order in [1u32, 4, 10, 15] {
            let order = 1u64 << log_order;
            let w = m.primitive_root_of_unity(order);
            assert_eq!(m.pow(w, order), 1);
            assert_ne!(m.pow(w, order / 2), 1);
        }
    }

    #[test]
    fn center_is_symmetric() {
        let m = Modulus::new(Q);
        assert_eq!(m.center(0), 0);
        assert_eq!(m.center(1), 1);
        assert_eq!(m.center(Q - 1), -1);
        assert_eq!(m.center(Q / 2), (Q / 2) as i64);
        assert_eq!(m.center(Q / 2 + 1), -((Q / 2) as i64));
    }

    #[test]
    fn supports_ntt_matches_factorization() {
        let m = Modulus::new(Q);
        assert!(m.supports_ntt(1 << 14));
        assert!(m.supports_ntt(1 << 17)); // q ≡ 1 mod 2^18
        assert!(!m.supports_ntt(1 << 18));
    }

    #[test]
    #[should_panic(expected = "must be prime")]
    fn rejects_composite() {
        Modulus::new(0x3FFE_0003);
    }
}
