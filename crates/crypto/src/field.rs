//! Prime fields for the BN-254 ("BN-128" in the paper) curve family.
//!
//! Two fields are defined:
//!
//! * [`Fq`] — the base field of the curve (the coordinates of G1 points),
//!   with modulus `q = 21888242871839275222246405745257275088696311157297823662689037894645226208583`.
//! * [`Fr`] — the scalar field (the group order of G1/G2), with modulus
//!   `r = 21888242871839275222246405745257275088548364400416034343698204186575808495617`.
//!
//! Elements are stored in Montgomery form (multiplied by `R = 2^256 mod p`)
//! over four 64-bit little-endian limbs, multiplied by one interleaved
//! pass of multiplication and Montgomery reduction (CIOS). The
//! representation is always kept canonical (reduced), which makes derived
//! equality/hashing sound. `Fq` has no square root: G1 points travel
//! uncompressed (see `g1`), so nothing recovers a `y` from an `x`.

use crate::arith::{
    add_4, approx_64, bit, bit_len, lin_comb_mont, lin_comb_shr31, lt_4, mac, sub_4,
};
use core::fmt;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use rand::Rng;

/// Rounds of 31 binary-GCD steps [`Fq::inverse`] and [`Fr::inverse`]
/// run: `17 × 31 = 527 ≥ 2·254 − 1`.
const GCD_ROUNDS: usize = 17;

/// Generates a 4-limb Montgomery-form prime field type.
macro_rules! montgomery_field {
    (
        $(#[$doc:meta])*
        $name:ident,
        modulus = $modulus:expr,
        r = $r:expr,
        r2 = $r2:expr,
        inv = $inv:expr,
        gcd_scale = $gcd_scale:expr,
        modulus_str = $modulus_str:expr
    ) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
        pub struct $name(pub(crate) [u64; 4]);

        impl $name {
            /// The field modulus as little-endian limbs.
            pub const MODULUS: [u64; 4] = $modulus;
            /// `R = 2^256 mod p` — the Montgomery radix, also the
            /// Montgomery form of `1`.
            pub const R: [u64; 4] = $r;
            /// `R^2 mod p`, used to convert into Montgomery form.
            pub const R2: [u64; 4] = $r2;
            /// `-p^{-1} mod 2^64`, the Montgomery reduction constant.
            pub const INV: u64 = $inv;
            /// `R²·2⁵⁶¹ mod p`: the starting cofactor of
            /// [`Self::inverse`], which folds its rounds' `2⁻⁵⁶¹` and the
            /// conversion to Montgomery form into the result.
            pub const GCD_SCALE: [u64; 4] = $gcd_scale;
            /// The modulus as a decimal string (for documentation/tests).
            pub const MODULUS_STR: &'static str = $modulus_str;

            /// The additive identity.
            #[inline]
            pub const fn zero() -> Self {
                Self([0, 0, 0, 0])
            }

            /// The multiplicative identity.
            #[inline]
            pub const fn one() -> Self {
                Self(Self::R)
            }

            /// Whether this element is zero.
            #[inline]
            pub fn is_zero(&self) -> bool {
                self.0 == [0, 0, 0, 0]
            }

            /// Constructs an element from a small integer.
            pub fn from_u64(v: u64) -> Self {
                Self([v, 0, 0, 0]) * Self(Self::R2)
            }

            /// Constructs an element from a u128.
            pub fn from_u128(v: u128) -> Self {
                Self([v as u64, (v >> 64) as u64, 0, 0]) * Self(Self::R2)
            }

            /// Constructs an element from plain (non-Montgomery) limbs,
            /// which must be fully reduced. Returns `None` otherwise.
            pub fn from_plain_limbs(l: [u64; 4]) -> Option<Self> {
                if lt_4(&l, &Self::MODULUS) {
                    Some(Self(l) * Self(Self::R2))
                } else {
                    None
                }
            }

            /// Converts out of Montgomery form into plain little-endian limbs.
            pub fn to_plain_limbs(&self) -> [u64; 4] {
                self.mul_internal(&Self([1, 0, 0, 0])).0
            }

            /// Canonical 32-byte little-endian encoding.
            pub fn to_bytes_le(&self) -> [u8; 32] {
                let l = self.to_plain_limbs();
                let mut out = [0u8; 32];
                for i in 0..4 {
                    out[8 * i..8 * i + 8].copy_from_slice(&l[i].to_le_bytes());
                }
                out
            }

            /// Parses a canonical 32-byte little-endian encoding.
            ///
            /// Returns `None` if the value is not fully reduced.
            pub fn from_bytes_le(bytes: &[u8; 32]) -> Option<Self> {
                let mut l = [0u64; 4];
                for i in 0..4 {
                    let mut w = [0u8; 8];
                    w.copy_from_slice(&bytes[8 * i..8 * i + 8]);
                    l[i] = u64::from_le_bytes(w);
                }
                Self::from_plain_limbs(l)
            }

            /// Interprets 64 little-endian bytes as an integer and reduces
            /// it modulo `p` (used for hash-to-field).
            pub fn from_bytes_wide(bytes: &[u8; 64]) -> Self {
                let mut lo = [0u64; 4];
                let mut hi = [0u64; 4];
                for i in 0..4 {
                    let mut w = [0u8; 8];
                    w.copy_from_slice(&bytes[8 * i..8 * i + 8]);
                    lo[i] = u64::from_le_bytes(w);
                    w.copy_from_slice(&bytes[32 + 8 * i..32 + 8 * i + 8]);
                    hi[i] = u64::from_le_bytes(w);
                }
                // lo + hi * 2^256 = lo * 1 + hi * R  (mod p), each term is
                // brought into Montgomery form by one extra R factor.
                Self(lo) * Self(Self::R2) + Self(hi) * Self(Self::R2) * Self(Self::R2)
            }

            /// Samples a uniformly random field element by rejection.
            pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
                loop {
                    let mut l = [0u64; 4];
                    for limb in &mut l {
                        *limb = rng.gen();
                    }
                    // The moduli here are 254-bit, so clear the top two bits
                    // to make acceptance likely.
                    l[3] &= u64::MAX >> 2;
                    if lt_4(&l, &Self::MODULUS) {
                        return Self(l) * Self(Self::R2);
                    }
                }
            }

            #[inline]
            fn reduce_once(l: [u64; 4], carry: u64) -> Self {
                // If the value overflowed 2^256 or is >= p, subtract p once.
                let (sub, borrow) = sub_4(&l, &Self::MODULUS);
                if carry != 0 || borrow == 0 {
                    Self(sub)
                } else {
                    Self(l)
                }
            }

            /// Field multiplication: the Montgomery product
            /// `self·rhs·R⁻¹ mod p`, canonical.
            ///
            /// One pass per limb of `self` (CIOS): add `selfᵢ·rhs` into
            /// the 4-limb accumulator, then `m·p` with `m` chosen to
            /// clear its low limb, and shift one limb down — the two
            /// carry chains run side by side, so no 512-bit product is
            /// ever formed. The accumulator stays below `rhs + p < 2p`,
            /// which fits four limbs because `2p < 2^256` (asserted
            /// below the macro's impl), so its top limb is the plain sum
            /// of the two chains' carries. `rhs` must be reduced; `self`
            /// may be any 256-bit value (the conversions pass raw limbs
            /// there), since `self·rhs < R·p` still leaves the result
            /// below `2p`, one conditional subtraction from canonical.
            #[inline]
            pub fn mul_internal(&self, rhs: &Self) -> Self {
                let (r, p) = (&rhs.0, &Self::MODULUS);
                let mut t = [0u64; 4];
                for &s in &self.0 {
                    let (t0, mut carry_sr) = mac(t[0], s, r[0], 0);
                    let m = t0.wrapping_mul(Self::INV);
                    let (_, mut carry_mp) = mac(t0, m, p[0], 0);
                    for j in 1..4 {
                        let (v, c) = mac(t[j], s, r[j], carry_sr);
                        carry_sr = c;
                        (t[j - 1], carry_mp) = mac(v, m, p[j], carry_mp);
                    }
                    t[3] = carry_sr + carry_mp;
                }
                Self::reduce_once(t, 0)
            }

            /// Squares this element.
            #[inline]
            pub fn square(&self) -> Self {
                self.mul_internal(self)
            }

            /// Doubles this element.
            #[inline]
            pub fn double(&self) -> Self {
                *self + *self
            }

            /// Raises this element to the power given by little-endian limbs.
            pub fn pow(&self, exp: &[u64]) -> Self {
                let n = bit_len(exp);
                if n == 0 {
                    return Self::one();
                }
                let mut acc = *self;
                for i in (0..n - 1).rev() {
                    acc = acc.square();
                    if bit(exp, i) {
                        acc = acc.mul_internal(self);
                    }
                }
                acc
            }

            /// Multiplicative inverse; `None` for zero.
            ///
            /// Pornin's optimized binary GCD (eprint 2020/972,
            /// Algorithm 2) on the Montgomery limbs `y = aR`, over
            /// `(a, b) = (y, p)` with cofactors `(u, v)`. Each of
            /// `GCD_ROUNDS` rounds runs 31 binary-GCD steps on 64-bit
            /// approximations of `a` and `b` (their low 31 bits and top
            /// 33), collecting the steps as one matrix `(f0 g0; f1 g1)`
            /// of entries in `[−2³¹ + 1, 2³¹]`, each row packed into one
            /// word; then applies it to the full-width values
            /// ([`lin_comb_shr31`]) and cofactors ([`lin_comb_mont`]).
            /// 17 × 31 = 527 steps cover the `2·254 − 1` any 254-bit
            /// input needs, and steps past `a = 0` leave `b = 1` and `v`
            /// alone but for the scaling. That scaling — each cofactor
            /// update divides by `2⁶⁴`, not the steps' `2³¹`, so 17
            /// rounds leave `2⁻⁵⁶¹` — and the `R²` that turns `1/(aR)`
            /// into the Montgomery form `a⁻¹R` are folded into one
            /// starting cofactor, `u = GCD_SCALE = R²·2⁵⁶¹ mod p`: the
            /// result is `v` itself, no product needed.
            ///
            /// The rounds' count is fixed, so the cost is too: about a
            /// hundred field products.
            pub fn inverse(&self) -> Option<Self> {
                if self.is_zero() {
                    return None;
                }
                /// The bias that makes a packed coefficient in
                /// `[−2³¹ + 1, 2³¹]` a 32-bit unsigned field.
                const BIAS: i64 = (1 << 31) - 1;
                const BIASES: u64 = BIAS as u64 * (1 + (1 << 32));
                fn unpack(fg: u64) -> (i64, i64) {
                    let w = fg.wrapping_add(BIASES);
                    ((w & 0xffff_ffff) as i64 - BIAS, (w >> 32) as i64 - BIAS)
                }
                let p = &Self::MODULUS;
                let (mut a, mut b) = (self.0, *p);
                let (mut u, mut v) = (Self::GCD_SCALE, [0u64; 4]);
                for _ in 0..GCD_ROUNDS {
                    let top = core::array::from_fn::<u64, 4, _>(|i| a[i] | b[i]);
                    let n = bit_len(&top).max(64);
                    let (mut xa, mut xb) = (approx_64(&a, n), approx_64(&b, n));
                    // `f + 2³²·g` per row, wrapping: every update is
                    // linear, so the packed words stay exact.
                    let (mut fg0, mut fg1) = (1u64, 1u64 << 32);
                    for _ in 0..31 {
                        let odd = (xa & 1).wrapping_neg();
                        let swap = odd & u64::from(xa < xb).wrapping_neg();
                        let t = swap & (xa ^ xb);
                        (xa, xb) = (xa ^ t, xb ^ t);
                        let t = swap & (fg0 ^ fg1);
                        (fg0, fg1) = (fg0 ^ t, fg1 ^ t);
                        xa = (xa - (odd & xb)) >> 1;
                        fg0 = fg0.wrapping_sub(odd & fg1);
                        fg1 <<= 1;
                    }
                    let ((f0, g0), (f1, g1)) = (unpack(fg0), unpack(fg1));
                    let (na, negative_a) = lin_comb_shr31(&a, &b, f0, g0);
                    let (nb, negative_b) = lin_comb_shr31(&a, &b, f1, g1);
                    let (f0, g0) = if negative_a { (-f0, -g0) } else { (f0, g0) };
                    let (f1, g1) = if negative_b { (-f1, -g1) } else { (f1, g1) };
                    (u, v) = (
                        lin_comb_mont(&u, &v, f0, g0, p, Self::INV),
                        lin_comb_mont(&u, &v, f1, g1, p, Self::INV),
                    );
                    (a, b) = (na, nb);
                }
                // 527 steps bound every input; a result that did not
                // converge must not leave this function as an inverse.
                assert!(b == [1, 0, 0, 0], "the binary GCD converged");
                Some(Self(v))
            }

            /// Fermat inversion `self^(p-2)`: the oracle the binary-GCD
            /// inversion is tested against.
            #[cfg(test)]
            fn inverse_fermat(&self) -> Option<Self> {
                let (p_minus_2, _) = sub_4(&Self::MODULUS, &[2, 0, 0, 0]);
                (!self.is_zero()).then(|| self.pow(&p_minus_2))
            }

            /// Inverts every nonzero element in place with a single field
            /// inversion (Montgomery's trick: prefix products, one
            /// inverse, unwind); zeros are skipped and stay zero.
            pub fn batch_invert(values: &mut [Self]) {
                Self::batch_invert_in(values, &mut Vec::with_capacity(values.len()));
            }

            /// [`Self::batch_invert`] with the prefix products kept in a
            /// caller-owned buffer, for callers that invert slice after
            /// slice (the lockstep curve kernels: one call per step).
            pub fn batch_invert_in(values: &mut [Self], prefix: &mut Vec<Self>) {
                prefix.clear();
                let mut acc = Self::one();
                for v in values.iter().filter(|v| !v.is_zero()) {
                    prefix.push(acc);
                    acc *= *v;
                }
                if prefix.is_empty() {
                    return;
                }
                let mut inv = acc.inverse().expect("product of nonzero elements");
                for (v, p) in values
                    .iter_mut()
                    .rev()
                    .filter(|v| !v.is_zero())
                    .zip(prefix.iter().rev())
                {
                    let next = inv * *v;
                    *v = inv * *p;
                    inv = next;
                }
            }
        }

        // `mul_internal` keeps no fifth accumulator limb: sound only while 2p < 2^256.
        const _: () = assert!($name::MODULUS[3] < u64::MAX >> 1);

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                let (l, carry) = add_4(&self.0, &rhs.0);
                Self::reduce_once(l, carry)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                let (l, borrow) = sub_4(&self.0, &rhs.0);
                if borrow != 0 {
                    let (l2, _) = add_4(&l, &Self::MODULUS);
                    Self(l2)
                } else {
                    Self(l)
                }
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self::zero() - self
            }
        }

        impl Mul for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                self.mul_internal(&rhs)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }
        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }
        impl MulAssign for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: Self) {
                *self = *self * rhs;
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self::from_u64(v)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let l = self.to_plain_limbs();
                write!(
                    f,
                    "0x{:016x}{:016x}{:016x}{:016x}",
                    l[3], l[2], l[1], l[0]
                )
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(self, f)
            }
        }
    };
}

montgomery_field!(
    /// The BN-254 base field `F_q` (G1 point coordinates live here).
    Fq,
    modulus = [
        0x3c208c16d87cfd47,
        0x97816a916871ca8d,
        0xb85045b68181585d,
        0x30644e72e131a029
    ],
    r = [
        0xd35d438dc58f0d9d,
        0x0a78eb28f5c70b3d,
        0x666ea36f7879462c,
        0x0e0a77c19a07df2f
    ],
    r2 = [
        0xf32cfc5b538afa89,
        0xb5e71911d44501fb,
        0x47ab1eff0a417ff6,
        0x06d89f71cab8351f
    ],
    inv = 0x87d20782e4866389,
    gcd_scale = [
        0x24ca261ab89b2a7a,
        0xe18ff4528674230b,
        0xf88dc49f3f3350aa,
        0x2dcd58e257c72274
    ],
    modulus_str = "21888242871839275222246405745257275088696311157297823662689037894645226208583"
);

montgomery_field!(
    /// The BN-254 scalar field `F_r` (the order of G1/G2; exponents,
    /// plaintexts, blinding factors and SNARK witnesses live here).
    Fr,
    modulus = [
        0x43e1f593f0000001,
        0x2833e84879b97091,
        0xb85045b68181585d,
        0x30644e72e131a029
    ],
    r = [
        0xac96341c4ffffffb,
        0x36fc76959f60cd29,
        0x666ea36f7879462e,
        0x0e0a77c19a07df2f
    ],
    r2 = [
        0x1bb8e645ae216da7,
        0x53fe3ab1e35c59e3,
        0x8c49833d53bb8085,
        0x0216d0b17f4e44a5
    ],
    inv = 0xc2e1f593efffffff,
    gcd_scale = [
        0x30a1402465f689ce,
        0x75d5c69d569ff343,
        0x1eb0e6aaceb2743d,
        0x25a22b440e851977
    ],
    modulus_str = "21888242871839275222246405745257275088548364400416034343698204186575808495617"
);

impl Fr {
    /// The 2-adicity of `r - 1`: `2^28 | r - 1`, enabling radix-2 NTTs of
    /// size up to `2^28`.
    pub const TWO_ADICITY: u32 = 28;

    /// A primitive `2^28`-th root of unity (plain limbs): `5^((r-1)/2^28)`.
    const ROOT_OF_UNITY_PLAIN: [u64; 4] = [
        0x9bd61b6e725b19f0,
        0x402d111e41112ed4,
        0x00e0a7eb8ef62abc,
        0x2a3c09f0a58a7e85,
    ];

    /// Returns a primitive `2^k`-th root of unity, for `k <= 28`.
    pub fn root_of_unity(k: u32) -> Option<Self> {
        if k > Self::TWO_ADICITY {
            return None;
        }
        let mut w = Self::from_plain_limbs(Self::ROOT_OF_UNITY_PLAIN)
            .expect("root-of-unity constant is reduced");
        for _ in 0..(Self::TWO_ADICITY - k) {
            w = w.square();
        }
        Some(w)
    }

    /// Reduces a 32-byte little-endian integer modulo `r` (not required to
    /// be canonical) — used by the Fiat–Shamir transform to map hash
    /// outputs onto challenge scalars.
    pub fn from_bytes_le_reduced(bytes: &[u8; 32]) -> Self {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(bytes);
        Self::from_bytes_wide(&wide)
    }
}

/// Serde support: fields serialize as canonical 32-byte LE arrays.
macro_rules! field_serde {
    ($name:ident) => {
        impl serde::Serialize for $name {
            fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                serde::Serialize::serialize(&self.to_bytes_le().to_vec(), s)
            }
        }
        impl<'de> serde::Deserialize<'de> for $name {
            fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let v: Vec<u8> = serde::Deserialize::deserialize(d)?;
                let arr: [u8; 32] = v
                    .try_into()
                    .map_err(|_| serde::de::Error::custom("expected 32 bytes"))?;
                $name::from_bytes_le(&arr)
                    .ok_or_else(|| serde::de::Error::custom("non-canonical field element"))
            }
        }
    };
}
field_serde!(Fq);
field_serde!(Fr);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{adc, mul_wide_4, shr1_4};
    use crate::vectors::{FieldVectors, FQ, FR};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xd24a_6001)
    }

    #[test]
    fn arithmetic_matches_offline_vectors() {
        macro_rules! check {
            ($field:ident, $v:expr) => {{
                let (v, name): (&FieldVectors, _) = (&$v, stringify!($field));
                let constants = ($field::MODULUS, $field::R, $field::R2, $field::INV);
                assert_eq!(constants, (v.modulus, v.r, v.r2, v.inv));
                assert_eq!($field::GCD_SCALE, v.gcd_scale);
                assert_eq!($field::from_plain_limbs(v.modulus), None);
                let elems: Vec<$field> = v
                    .operands
                    .iter()
                    .map(|&a| $field::from_plain_limbs(a).expect("operands are reduced"))
                    .collect();
                for (i, a) in elems.iter().enumerate() {
                    let plain = v.operands[i];
                    assert_eq!(a.0, v.to_montgomery[i], "{name} in: {plain:x?}");
                    assert_eq!(a.to_plain_limbs(), plain);
                    let out = $field(plain).to_plain_limbs();
                    assert_eq!(out, v.from_montgomery[i], "{name} out: {plain:x?}");
                    assert_eq!(
                        a.square().to_plain_limbs(),
                        v.squares[i],
                        "{name} {plain:x?}²"
                    );
                    let inverse = a.inverse().map_or([0; 4], |x| x.to_plain_limbs());
                    assert_eq!(inverse, v.inverses[i], "{name} 1/{plain:x?}");
                }
                for &(i, j, product) in v.products {
                    assert_eq!(
                        (elems[i] * elems[j]).to_plain_limbs(),
                        product,
                        "{name} {i}·{j}"
                    );
                }
                for &(y, inverse) in v.inverse_only {
                    let got = $field(y).inverse().map(|x| x.0);
                    assert_eq!(got, Some(inverse), "{name} 1/{y:x?} (Montgomery limbs)");
                }
            }};
        }
        check!(Fq, FQ);
        check!(Fr, FR);
    }

    /// Word-by-word Montgomery reduction of a 512-bit value (the SOS
    /// half of the product the crate shipped before the CIOS loop),
    /// with the final conditional subtraction.
    fn montgomery_reduce(mut t: [u64; 8], p: &[u64; 4], inv: u64) -> [u64; 4] {
        let mut carry2 = 0u64;
        for i in 0..4 {
            let k = t[i].wrapping_mul(inv);
            let (_, mut carry) = mac(t[i], k, p[0], 0);
            for j in 1..4 {
                (t[i + j], carry) = mac(t[i + j], k, p[j], carry);
            }
            (t[i + 4], carry2) = adc(t[i + 4], carry2, carry);
        }
        let high = [t[4], t[5], t[6], t[7]];
        let (sub, borrow) = sub_4(&high, p);
        if carry2 != 0 || borrow == 0 {
            sub
        } else {
            high
        }
    }

    /// The SOS oracle: the full 512-bit schoolbook product, then
    /// [`montgomery_reduce`].
    fn mul_sos(a: &[u64; 4], b: &[u64; 4], p: &[u64; 4], inv: u64) -> [u64; 4] {
        montgomery_reduce(mul_wide_4(a, b), p, inv)
    }

    /// Four limbs, each an edge value (0, 1, `u64::MAX`, a limb of
    /// either modulus) or uniform.
    fn edge_or_random_limbs() -> impl Strategy<Value = [u64; 4]> {
        proptest::collection::vec((0u8..6, any::<u64>()), 4).prop_map(|draws| {
            let mut limbs = [0u64; 4];
            for (i, (kind, x)) in draws.into_iter().enumerate() {
                limbs[i] = match kind {
                    0 => 0,
                    1 => 1,
                    2 => u64::MAX,
                    3 => Fq::MODULUS[i],
                    4 => Fr::MODULUS[i],
                    _ => x,
                };
            }
            limbs
        })
    }

    /// `limbs` brought below `modulus` (< 2^254 after masking, and
    /// `2^254 < 2p`, so one subtraction suffices).
    fn reduced(mut limbs: [u64; 4], modulus: &[u64; 4]) -> [u64; 4] {
        limbs[3] &= u64::MAX >> 2;
        if lt_4(&limbs, modulus) {
            limbs
        } else {
            sub_4(&limbs, modulus).0
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]
        /// The CIOS product equals the SOS oracle for a reduced `rhs`
        /// and any 256-bit `self` — the contract `mul_internal` states
        /// (the conversions pass raw limbs as `self`).
        #[test]
        fn cios_matches_sos_oracle(a in edge_or_random_limbs(), b in edge_or_random_limbs()) {
            let rq = reduced(b, &Fq::MODULUS);
            prop_assert_eq!(Fq(a).mul_internal(&Fq(rq)).0, mul_sos(&a, &rq, &Fq::MODULUS, Fq::INV));
            let rr = reduced(b, &Fr::MODULUS);
            prop_assert_eq!(Fr(a).mul_internal(&Fr(rr)).0, mul_sos(&a, &rr, &Fr::MODULUS, Fr::INV));
            let sq = Fq(reduced(a, &Fq::MODULUS));
            prop_assert_eq!(sq.square().0, mul_sos(&sq.0, &sq.0, &Fq::MODULUS, Fq::INV));
        }
    }

    #[test]
    fn one_times_one() {
        assert_eq!(Fq::one() * Fq::one(), Fq::one());
        assert_eq!(Fr::one() * Fr::one(), Fr::one());
    }

    #[test]
    fn small_arithmetic() {
        let a = Fq::from_u64(7);
        let b = Fq::from_u64(6);
        assert_eq!(a * b, Fq::from_u64(42));
        assert_eq!(a + b, Fq::from_u64(13));
        assert_eq!(a - b, Fq::from_u64(1));
        assert_eq!(b - a, -Fq::from_u64(1));
        assert_eq!(a.square(), Fq::from_u64(49));
        assert_eq!(a.double(), Fq::from_u64(14));
    }

    #[test]
    fn add_wraps_modulus() {
        // (p-1) + 2 == 1
        let p_minus_1 = -Fq::one();
        assert_eq!(p_minus_1 + Fq::from_u64(2), Fq::one());
        let r_minus_1 = -Fr::one();
        assert_eq!(r_minus_1 + Fr::from_u64(2), Fr::one());
    }

    #[test]
    fn inverse_round_trip() {
        let mut rng = rng();
        for _ in 0..20 {
            let a = Fq::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a * a.inverse().unwrap(), Fq::one());
            let b = Fr::random(&mut rng);
            if b.is_zero() {
                continue;
            }
            assert_eq!(b * b.inverse().unwrap(), Fr::one());
        }
        assert!(Fq::zero().inverse().is_none());
        assert!(Fr::zero().inverse().is_none());
    }

    #[test]
    fn inverse_matches_fermat() {
        macro_rules! check {
            ($field:ident, $rng:expr) => {{
                let (half_p_plus_1, _) = add_4(&shr1_4(&$field::MODULUS), &[1, 0, 0, 0]);
                let mut values = vec![
                    $field::one(),
                    $field::from_u64(2),
                    -$field::one(),
                    // The element whose plain value is R, and the one
                    // whose Montgomery limbs are 1 (plain R⁻¹).
                    $field::from_plain_limbs($field::R).unwrap(),
                    $field([1, 0, 0, 0]),
                    $field::from_plain_limbs(half_p_plus_1).unwrap(),
                ];
                values.extend((0..1_000).map(|_| $field::random($rng)));
                for a in values {
                    let inv = a.inverse().unwrap();
                    assert_eq!(Some(inv), a.inverse_fermat(), "a = {a:?}");
                    assert_eq!(a * inv, $field::one());
                }
                assert_eq!($field::zero().inverse(), None);
                // 1/2 = (p + 1)/2, written out.
                let half = $field::from_u64(2).inverse().unwrap();
                assert_eq!(half.to_plain_limbs(), half_p_plus_1);
                assert_eq!(half.double(), $field::one());
                assert_eq!($field::zero().inverse_fermat(), None);
            }};
        }
        let mut rng = rng();
        check!(Fq, &mut rng);
        check!(Fr, &mut rng);
    }

    /// The binary GCD's cofactor update is `(u·f + v·g)·2⁻⁶⁴ mod p`,
    /// reduced, with the coefficients at their edges.
    #[test]
    fn gcd_cofactor_update_is_a_signed_montgomery_step() {
        macro_rules! check {
            ($field:ident, $rng:expr) => {{
                let signed = |c: i64| {
                    let x = $field::from_u64(c.unsigned_abs());
                    if c < 0 {
                        -x
                    } else {
                        x
                    }
                };
                let two_64 = $field::from_u128(1 << 64);
                let edges = [0, 1, -1, (1 << 31) - 1, 1 << 31, 1 - (1 << 31)];
                let mut elems = vec![$field::zero(), $field::one(), -$field::one()];
                elems.extend((0..3).map(|_| $field::random($rng)));
                for (u, v) in elems
                    .iter()
                    .flat_map(|u| elems.iter().map(move |v| (*u, *v)))
                {
                    for (f, g) in edges
                        .iter()
                        .flat_map(|f| edges.iter().map(move |g| (*f, *g)))
                    {
                        let got = lin_comb_mont(&u.0, &v.0, f, g, &$field::MODULUS, $field::INV);
                        assert!(lt_4(&got, &$field::MODULUS), "reduced");
                        assert_eq!($field(got) * two_64, u * signed(f) + v * signed(g));
                    }
                }
            }};
        }
        let mut rng = rng();
        check!(Fq, &mut rng);
        check!(Fr, &mut rng);
    }

    #[test]
    fn batch_invert_matches_inverse() {
        let mut rng = rng();
        let mut values: Vec<Fq> = (0..9).map(|_| Fq::random(&mut rng)).collect();
        values[0] = Fq::zero();
        values[4] = Fq::zero();
        values[8] = Fq::one();
        let expect: Vec<Fq> = values
            .iter()
            .map(|v| v.inverse().unwrap_or(Fq::zero()))
            .collect();
        Fq::batch_invert(&mut values);
        assert_eq!(values, expect);
        let mut zeros = [Fq::zero(); 3];
        Fq::batch_invert(&mut zeros);
        assert_eq!(zeros, [Fq::zero(); 3]);
        Fq::batch_invert(&mut []);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = Fq::from_u64(3);
        let mut acc = Fq::one();
        for _ in 0..17 {
            acc *= a;
        }
        assert_eq!(a.pow(&[17]), acc);
        assert_eq!(a.pow(&[0]), Fq::one());
        assert_eq!(a.pow(&[1]), a);
    }

    #[test]
    fn fermat_exponent() {
        // a^(p-1) == 1
        let mut rng = rng();
        let a = Fq::random(&mut rng);
        let (p_minus_1, _) = crate::arith::sub_4(&Fq::MODULUS, &[1, 0, 0, 0]);
        assert_eq!(a.pow(&p_minus_1), Fq::one());
        let b = Fr::random(&mut rng);
        let (r_minus_1, _) = crate::arith::sub_4(&Fr::MODULUS, &[1, 0, 0, 0]);
        assert_eq!(b.pow(&r_minus_1), Fr::one());
    }

    #[test]
    fn bytes_round_trip() {
        let mut rng = rng();
        for _ in 0..10 {
            let a = Fq::random(&mut rng);
            assert_eq!(Fq::from_bytes_le(&a.to_bytes_le()).unwrap(), a);
            let b = Fr::random(&mut rng);
            assert_eq!(Fr::from_bytes_le(&b.to_bytes_le()).unwrap(), b);
        }
    }

    #[test]
    fn non_canonical_bytes_rejected() {
        let mut bytes = [0xffu8; 32];
        assert!(Fq::from_bytes_le(&bytes).is_none());
        bytes = [0u8; 32];
        bytes[0] = 1;
        assert_eq!(Fq::from_bytes_le(&bytes).unwrap(), Fq::one());
    }

    #[test]
    fn from_bytes_wide_reduces() {
        // 2^256 mod p equals R (as an integer), so from_bytes_wide of
        // [0;32] ++ [1, 0...] must equal the field element with plain
        // limbs R.
        let mut wide = [0u8; 64];
        wide[32] = 1;
        let got = Fq::from_bytes_wide(&wide);
        let expect = Fq::from_plain_limbs(Fq::R).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn fr_root_of_unity() {
        let w = Fr::root_of_unity(3).unwrap();
        // w^8 == 1 and w^4 != 1.
        assert_eq!(w.pow(&[8]), Fr::one());
        assert_ne!(w.pow(&[4]), Fr::one());
        assert_eq!(Fr::root_of_unity(0).unwrap(), Fr::one());
        assert!(Fr::root_of_unity(29).is_none());
    }

    #[test]
    fn distributivity_randomized() {
        let mut rng = rng();
        for _ in 0..50 {
            let a = Fq::random(&mut rng);
            let b = Fq::random(&mut rng);
            let c = Fq::random(&mut rng);
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!((a + b) * c, a * c + b * c);
            assert_eq!(a * b, b * a);
            assert_eq!((a - b) + b, a);
        }
    }

    #[test]
    fn from_u128_consistent() {
        let v = 0x1234_5678_9abc_def0_1122_3344_5566_7788u128;
        let lo = Fq::from_u64(v as u64);
        let hi = Fq::from_u64((v >> 64) as u64);
        let two64 = Fq::from_u64(u64::MAX) + Fq::one();
        assert_eq!(Fq::from_u128(v), hi * two64 + lo);
    }

    #[test]
    fn serde_round_trip() {
        let mut rng = rng();
        let a = Fr::random(&mut rng);
        // Serialize through a simple serde format: use serde's test by
        // round-tripping through serde_json-like in-memory — we avoid
        // external crates, so just check the byte codec directly via the
        // Serialize impl contract (to_bytes_le is the wire format).
        assert_eq!(Fr::from_bytes_le(&a.to_bytes_le()), Some(a));
    }
}
