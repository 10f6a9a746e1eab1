//! Ring-GSW encryption and the external product (§2.5).
//!
//! GSW features reduced, asymmetric noise growth under multiplication but
//! encrypts only a small amount of information per ciphertext. F1 supports
//! it with the same functional units because its kernels are the same
//! primitives: NTTs, modular multiplies and adds. We implement the
//! RNS-limb-gadget variant: a GSW ciphertext encrypting a bit `μ` is a
//! `2L × 2` matrix of RLWE rows, and the external product with an RLWE
//! ciphertext decomposes the RLWE polynomials limb-by-limb (the same
//! decomposition machinery as Listing 1's key-switch).

use crate::keys::SecretKey;
use crate::keyswitch::CenteredLift;
use f1_poly::rns::{Domain, RnsContext, RnsPoly};
use rand::Rng;
use std::sync::Arc;

/// An RLWE sample `(a, b)` with phase `φ = b - a*s`.
#[derive(Debug, Clone)]
pub struct Rlwe {
    /// Mask polynomial (NTT domain).
    pub a: RnsPoly,
    /// Body polynomial (NTT domain).
    pub b: RnsPoly,
}

impl Rlwe {
    /// A trivial (noiseless, unmasked) encryption of `m`: `(0, m)`.
    pub fn trivial(m: &RnsPoly) -> Self {
        assert_eq!(m.domain(), Domain::Ntt);
        Self { a: RnsPoly::zero_ntt_at_level(m.context(), m.level()), b: m.clone() }
    }

    /// A fresh encryption of `m` under `sk` with error parameter `eta`.
    pub fn encrypt(m: &RnsPoly, sk: &SecretKey, eta: u32, rng: &mut impl Rng) -> Self {
        let ctx = m.context().clone();
        let level = m.level();
        let a = RnsPoly::random_at_level(&ctx, level, rng).to_ntt();
        let e = RnsPoly::random_error(&ctx, level, eta, rng).to_ntt();
        let b = a.mul(&sk.s_at_level(level)).add(&e).add(m);
        Self { a, b }
    }

    /// The phase `b - a*s` in coefficient form (decryption modulo noise).
    pub fn phase(&self, sk: &SecretKey) -> RnsPoly {
        self.b.sub(&self.a.mul(&sk.s_at_level(self.a.level()))).to_coeff()
    }
}

/// A GSW ciphertext encrypting a small scalar (usually a bit).
///
/// Rows `0..L` act on the decomposed `b` polynomial of an RLWE input;
/// rows `L..2L` act on the decomposed `a` polynomial.
#[derive(Debug, Clone)]
pub struct GswCiphertext {
    level: usize,
    /// `rows[r] = (a_r, b_r)` in NTT domain.
    rows: Vec<(RnsPoly, RnsPoly)>,
}

impl GswCiphertext {
    /// Encrypts the scalar `mu` (typically 0 or 1).
    pub fn encrypt(mu: u64, sk: &SecretKey, level: usize, eta: u32, rng: &mut impl Rng) -> Self {
        let ctx = sk.context().clone();
        let mu_r = u32::try_from(mu).expect("GSW payloads are small scalars");
        let mut rows = Vec::with_capacity(2 * level);
        // b-block: phase(row_i) = mu * g_i  (indicator gadget, limb i).
        for i in 0..level {
            let (a, mut b) = fresh_zero(&ctx, sk, level, eta, rng);
            add_gadget(&mut b, i, mu_r, &ctx);
            rows.push((a, b));
        }
        // a-block: rows encrypting -mu * g_i * s: add mu*g_i to the *mask*.
        for i in 0..level {
            let (mut a, b) = fresh_zero(&ctx, sk, level, eta, rng);
            add_gadget(&mut a, i, mu_r, &ctx);
            rows.push((a, b));
        }
        Self { level, rows }
    }

    /// Size in bytes (the `2L * 2` residue-polynomial matrix).
    pub fn size_bytes(&self) -> usize {
        self.rows.iter().map(|(a, b)| a.size_bytes() + b.size_bytes()).sum()
    }

    /// External product `GSW(μ) ⊡ RLWE(m) -> RLWE(μ*m)`.
    ///
    /// Decomposes both polynomials of `ct` limb-by-limb (centered lift,
    /// exactly the key-switch lift of Listing 1) and accumulates the
    /// matching GSW rows.
    pub fn external_product(&self, ct: &Rlwe) -> Rlwe {
        let l = ct.a.level();
        assert!(l <= self.level, "GSW level {} below input level {l}", self.level);
        let ctx = ct.a.context().clone();
        let b_coeff = ct.b.to_coeff();
        let a_coeff = ct.a.to_coeff();
        let mut out_a = RnsPoly::zero_ntt_at_level(&ctx, l);
        let mut out_b = RnsPoly::zero_ntt_at_level(&ctx, l);
        for i in 0..l {
            let dec_b = lift_limb_ntt(&b_coeff, i, l, &ctx);
            let (ra, rb) = (&self.rows[i].0.truncate_level(l), &self.rows[i].1.truncate_level(l));
            out_a = out_a.add(&dec_b.mul(ra));
            out_b = out_b.add(&dec_b.mul(rb));
            // a-block rows are offset by the GSW's own level, not l.
            let dec_a = lift_limb_ntt(&a_coeff, i, l, &ctx);
            let (sa, sb) = (
                &self.rows[self.level + i].0.truncate_level(l),
                &self.rows[self.level + i].1.truncate_level(l),
            );
            // Add: the a-block rows already carry phase e - mu*g_i*s, so
            // accumulating them contributes -mu*(a*s) as required.
            out_a = out_a.add(&dec_a.mul(sa));
            out_b = out_b.add(&dec_a.mul(sb));
        }
        Rlwe { a: out_a, b: out_b }
    }
}

/// Fresh RLWE encryption of zero as a row template.
fn fresh_zero(
    ctx: &Arc<RnsContext>,
    sk: &SecretKey,
    level: usize,
    eta: u32,
    rng: &mut impl Rng,
) -> (RnsPoly, RnsPoly) {
    let a = RnsPoly::random_at_level(ctx, level, rng).to_ntt();
    let e = RnsPoly::random_error(ctx, level, eta, rng).to_ntt();
    let b = a.mul(&sk.s_at_level(level)).add(&e);
    (a, b)
}

/// Adds `mu * g_i` (gadget: the constant `mu` on limb `i` only) to `p`.
fn add_gadget(p: &mut RnsPoly, i: usize, mu: u32, ctx: &Arc<RnsContext>) {
    // The constant polynomial mu has every NTT slot equal to mu.
    let m = ctx.modulus(i);
    let mu_r = mu % m.value();
    for x in p.limb_mut(i).iter_mut() {
        *x = m.add(*x, mu_r);
    }
}

/// Centered lift of limb `i` into all `l` bases, NTT domain (shared shape
/// with the key-switch lift).
fn lift_limb_ntt(y: &RnsPoly, i: usize, l: usize, ctx: &Arc<RnsContext>) -> RnsPoly {
    let mi = ctx.modulus(i);
    let src = y.limb(i);
    let mut out = RnsPoly::zero_at_level(ctx, l);
    out.for_each_limb_mut(|j, mj, limb| {
        let lift = CenteredLift::new(mi, mj);
        for (x, &s) in limb.iter_mut().zip(src) {
            *x = lift.apply(s);
        }
        ctx.tables(j).forward(limb);
    });
    // The limbs were filled with NTT-domain data directly.
    out.assume_domain(Domain::Ntt);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_poly::crt;
    use rand::SeedableRng;

    fn setup() -> (Arc<RnsContext>, SecretKey, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x65);
        let ctx = RnsContext::for_ring(64, 30, 3);
        let sk = SecretKey::generate(&ctx, &mut rng);
        (ctx, sk, rng)
    }

    /// A plaintext living in the high bits so GSW noise stays separable.
    fn big_message(ctx: &Arc<RnsContext>, v: i64) -> RnsPoly {
        let mut coeffs = vec![0i64; 64];
        coeffs[0] = v << 40;
        RnsPoly::from_signed_coeffs(ctx, 3, &coeffs).to_ntt()
    }

    fn phase_coeff0(r: &Rlwe, sk: &SecretKey) -> i64 {
        let p = r.phase(sk);
        let c = crt::reconstruct_centered(&p);
        let mag = c[0].1.to_u128().unwrap_or(u128::MAX) as i64;
        let v = if c[0].0 { -mag } else { mag };
        // Round away the noise below bit 40.
        (v + (1 << 39)) >> 40
    }

    #[test]
    fn external_product_by_one_preserves() {
        let (ctx, sk, mut rng) = setup();
        let m = big_message(&ctx, 5);
        let rlwe = Rlwe::encrypt(&m, &sk, 4, &mut rng);
        let gsw = GswCiphertext::encrypt(1, &sk, 3, 4, &mut rng);
        let prod = gsw.external_product(&rlwe);
        assert_eq!(phase_coeff0(&prod, &sk), 5);
    }

    #[test]
    fn external_product_by_zero_annihilates() {
        let (ctx, sk, mut rng) = setup();
        let m = big_message(&ctx, 7);
        let rlwe = Rlwe::encrypt(&m, &sk, 4, &mut rng);
        let gsw = GswCiphertext::encrypt(0, &sk, 3, 4, &mut rng);
        let prod = gsw.external_product(&rlwe);
        assert_eq!(phase_coeff0(&prod, &sk), 0);
    }

    #[test]
    fn external_product_chains() {
        // GSW(1) ⊡ (GSW(1) ⊡ RLWE(m)) == m: the asymmetric noise growth
        // property in action (noise adds, it does not multiply).
        let (ctx, sk, mut rng) = setup();
        let m = big_message(&ctx, 3);
        let rlwe = Rlwe::encrypt(&m, &sk, 4, &mut rng);
        let g1 = GswCiphertext::encrypt(1, &sk, 3, 4, &mut rng);
        let out = g1.external_product(&g1.external_product(&rlwe));
        assert_eq!(phase_coeff0(&out, &sk), 3);
    }

    #[test]
    fn trivial_rlwe_phase_is_message() {
        let (ctx, sk, _rng) = setup();
        let m = big_message(&ctx, 9);
        let t = Rlwe::trivial(&m);
        assert_eq!(phase_coeff0(&t, &sk), 9);
    }

    #[test]
    fn gsw_size_matches_2l_by_2_matrix() {
        let (_ctx, sk, mut rng) = setup();
        let gsw = GswCiphertext::encrypt(1, &sk, 3, 4, &mut rng);
        // 2L rows x 2 polys x L limbs x N coeffs x 4 bytes.
        assert_eq!(gsw.size_bytes(), 2 * 3 * 2 * 3 * 64 * 4);
    }
}
