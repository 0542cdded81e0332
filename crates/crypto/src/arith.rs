//! Low-level multi-precision limb arithmetic helpers.
//!
//! All field arithmetic in this crate is built on 64-bit limbs in
//! little-endian order. These helpers implement the classic
//! add-with-carry / subtract-with-borrow / multiply-accumulate primitives
//! used by the Montgomery-form field implementation in [`crate::field`].

/// Computes `a + b + carry`, returning the result and the new carry.
#[inline(always)]
pub const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let ret = (a as u128) + (b as u128) + (carry as u128);
    (ret as u64, (ret >> 64) as u64)
}

/// Computes `a - (b + borrow)`, returning the result and the new borrow.
///
/// The borrow is encoded as `0` (no borrow) or `u64::MAX` (borrow), so the
/// caller passes the previous borrow word straight back in.
#[inline(always)]
pub const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let ret = (a as u128).wrapping_sub((b as u128) + ((borrow >> 63) as u128));
    (ret as u64, (ret >> 64) as u64)
}

/// Computes `a + (b * c) + carry`, returning the result and the new carry.
#[inline(always)]
pub const fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let ret = (a as u128) + (b as u128) * (c as u128) + (carry as u128);
    (ret as u64, (ret >> 64) as u64)
}

/// Returns `true` when the 4-limb little-endian integer `a` is strictly
/// less than `b`.
#[inline]
pub const fn lt_4(a: &[u64; 4], b: &[u64; 4]) -> bool {
    let mut i = 3;
    loop {
        if a[i] < b[i] {
            return true;
        }
        if a[i] > b[i] {
            return false;
        }
        if i == 0 {
            return false;
        }
        i -= 1;
    }
}

/// Subtracts 4-limb `b` from `a`, wrapping; returns (limbs, borrow-out).
#[inline]
pub const fn sub_4(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let (r0, borrow) = sbb(a[0], b[0], 0);
    let (r1, borrow) = sbb(a[1], b[1], borrow);
    let (r2, borrow) = sbb(a[2], b[2], borrow);
    let (r3, borrow) = sbb(a[3], b[3], borrow);
    ([r0, r1, r2, r3], borrow)
}

/// Adds 4-limb `a` and `b`, wrapping; returns (limbs, carry-out).
#[inline]
pub const fn add_4(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let (r0, carry) = adc(a[0], b[0], 0);
    let (r1, carry) = adc(a[1], b[1], carry);
    let (r2, carry) = adc(a[2], b[2], carry);
    let (r3, carry) = adc(a[3], b[3], carry);
    ([r0, r1, r2, r3], carry)
}

/// Shifts the 4-limb little-endian integer `a` right by one bit.
#[inline]
pub const fn shr1_4(a: &[u64; 4]) -> [u64; 4] {
    [
        a[0] >> 1 | a[1] << 63,
        a[1] >> 1 | a[2] << 63,
        a[2] >> 1 | a[3] << 63,
        a[3] >> 1,
    ]
}

/// Full 512-bit schoolbook product of two 4-limb little-endian integers.
#[inline(always)]
pub const fn mul_wide_4(a: &[u64; 4], b: &[u64; 4]) -> [u64; 8] {
    let mut t = [0u64; 8];
    let mut i = 0;
    while i < 4 {
        let mut carry = 0u64;
        let mut j = 0;
        while j < 4 {
            let (v, c) = mac(t[i + j], a[i], b[j], carry);
            t[i + j] = v;
            carry = c;
            j += 1;
        }
        t[i + 4] = carry;
        i += 1;
    }
    t
}

/// Pornin's 64-bit approximation of a 4-limb value of at most `n ≥ 64`
/// bits (eprint 2020/972, Algorithm 2): its low 31 bits, exact, below
/// its top 33 bits `[n − 33, n)`. Below 64 bits it is the value itself.
#[inline]
pub fn approx_64(x: &[u64; 4], n: usize) -> u64 {
    let (limb, shift) = ((n - 33) / 64, (n - 33) % 64);
    let mut top = x[limb] >> shift;
    if shift != 0 && limb < 3 {
        top |= x[limb + 1] << (64 - shift);
    }
    (x[0] & 0x7fff_ffff) | top << 31
}

/// `x·f` as a 5-limb two's-complement integer, for `|f| ≤ 2⁶³`.
#[inline]
fn mul_signed_5(x: &[u64; 4], f: i64) -> [u64; 5] {
    let m = f.unsigned_abs();
    let mut t = [0u64; 5];
    let mut carry = 0;
    for i in 0..4 {
        (t[i], carry) = mac(0, x[i], m, carry);
    }
    t[4] = carry;
    if f < 0 {
        negate_5(&mut t);
    }
    t
}

/// Negates a 5-limb two's-complement integer in place.
#[inline]
fn negate_5(t: &mut [u64; 5]) {
    let mut borrow = 0;
    for limb in t.iter_mut() {
        (*limb, borrow) = sbb(0, *limb, borrow);
    }
}

/// `(a·f + b·g) / 2³¹` for `a, b < 2²⁵⁴` and `|f|, |g| ≤ 2³¹` whose
/// combination the caller knows to be a multiple of `2³¹` (a binary GCD
/// round's update): the magnitude, and whether the value was negative.
#[inline]
pub fn lin_comb_shr31(a: &[u64; 4], b: &[u64; 4], f: i64, g: i64) -> ([u64; 4], bool) {
    let (af, bg) = (mul_signed_5(a, f), mul_signed_5(b, g));
    let mut t = [0u64; 5];
    let mut carry = 0;
    for i in 0..5 {
        (t[i], carry) = adc(af[i], bg[i], carry);
    }
    let negative = t[4] >> 63 == 1;
    if negative {
        negate_5(&mut t);
    }
    let shifted = core::array::from_fn(|i| t[i] >> 31 | t[i + 1] << 33);
    (shifted, negative)
}

/// `(u·f + v·g)·2⁻⁶⁴ mod p` for reduced `u`, `v` and `|f|, |g| ≤ 2³¹`,
/// reduced: a sign is moved onto its operand (`p − u` for `f < 0`), and
/// one Montgomery step (`inv = −p⁻¹ mod 2⁶⁴`) divides the 287-bit sum
/// by `2⁶⁴`, which leaves it below `2p`.
#[inline]
pub fn lin_comb_mont(
    u: &[u64; 4],
    v: &[u64; 4],
    f: i64,
    g: i64,
    p: &[u64; 4],
    inv: u64,
) -> [u64; 4] {
    let signed = |x: &[u64; 4], c: i64| if c < 0 { sub_4(p, x).0 } else { *x };
    let (u, v) = (signed(u, f), signed(v, g));
    let (f, g) = (f.unsigned_abs(), g.unsigned_abs());
    let mut t = [0u64; 5];
    let (mut cu, mut cv) = (0, 0);
    for i in 0..4 {
        let (x, c) = mac(0, u[i], f, cu);
        cu = c;
        (t[i], cv) = mac(x, v[i], g, cv);
    }
    t[4] = cu + cv;
    let m = t[0].wrapping_mul(inv);
    let (_, mut carry) = mac(t[0], m, p[0], 0);
    let mut r = [0u64; 4];
    for i in 1..4 {
        (r[i - 1], carry) = mac(t[i], m, p[i], carry);
    }
    r[3] = t[4] + carry;
    let (sub, borrow) = sub_4(&r, p);
    if borrow == 0 {
        sub
    } else {
        r
    }
}

/// Number of significant bits in a little-endian limb slice.
pub fn bit_len(limbs: &[u64]) -> usize {
    for (i, &l) in limbs.iter().enumerate().rev() {
        if l != 0 {
            return 64 * i + (64 - l.leading_zeros() as usize);
        }
    }
    0
}

/// Reads bit `i` (little-endian) of a limb slice.
#[inline]
pub fn bit(limbs: &[u64], i: usize) -> bool {
    (limbs[i / 64] >> (i % 64)) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc_carries() {
        assert_eq!(adc(u64::MAX, 1, 0), (0, 1));
        assert_eq!(adc(u64::MAX, u64::MAX, 1), (u64::MAX, 1));
        assert_eq!(adc(1, 2, 0), (3, 0));
    }

    #[test]
    fn sbb_borrows() {
        let (r, b) = sbb(0, 1, 0);
        assert_eq!(r, u64::MAX);
        assert_eq!(b, u64::MAX);
        let (r, b) = sbb(5, 1, b);
        assert_eq!(r, 3);
        assert_eq!(b, 0);
    }

    #[test]
    fn mac_full_width() {
        // (2^64-1)^2 + (2^64-1) + (2^64-1) = 2^128 - 1
        let (lo, hi) = mac(u64::MAX, u64::MAX, u64::MAX, u64::MAX);
        assert_eq!(lo, u64::MAX);
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn cmp_and_sub() {
        let a = [1, 0, 0, 5];
        let b = [2, 0, 0, 5];
        assert!(lt_4(&a, &b));
        assert!(!lt_4(&b, &a));
        assert!(!lt_4(&a, &a));
        let (d, borrow) = sub_4(&b, &a);
        assert_eq!(d, [1, 0, 0, 0]);
        assert_eq!(borrow, 0);
        let (_, borrow) = sub_4(&a, &b);
        assert_eq!(borrow, u64::MAX);
    }

    #[test]
    fn shr1_crosses_limbs() {
        assert_eq!(shr1_4(&[1, 1, 1, 1]), [1 << 63, 1 << 63, 1 << 63, 0]);
        assert_eq!(
            shr1_4(&[u64::MAX; 4]),
            [u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 1]
        );
    }

    #[test]
    fn mul_wide_full_width() {
        // (2^256 - 1)^2 = 2^512 - 2^257 + 1.
        let max = [u64::MAX; 4];
        assert_eq!(
            mul_wide_4(&max, &max),
            [1, 0, 0, 0, u64::MAX - 1, u64::MAX, u64::MAX, u64::MAX]
        );
        assert_eq!(
            mul_wide_4(&[3, 0, 0, 0], &[0, 0, 0, 5]),
            [0, 0, 0, 15, 0, 0, 0, 0]
        );
    }

    #[test]
    fn approximation_keeps_low_31_and_top_33_bits() {
        let x = [0x1234_5678_9abc_def0, 0, 0, 0];
        assert_eq!(approx_64(&x, 64), x[0]);
        // 2²⁵³ + 2⁹⁰ + 5 at n = 254: bits 221..254 are 1 then zeros.
        let x = [5, 1 << 26, 0, 1 << 61];
        assert_eq!(approx_64(&x, 254), 1 << 63 | 5);
        // The top 33 bits may straddle a limb boundary.
        assert_eq!(approx_64(&[0, u64::MAX, 1, 0], 129), ((1 << 33) - 1) << 31);
    }

    #[test]
    fn gcd_round_update_divides_by_2_31() {
        // 3·2⁶⁴ − 2³¹·2³¹ = 3·2⁶⁴ − 2⁶², over 2³¹.
        let (a, b) = ([0, 1, 0, 0], [1 << 31, 0, 0, 0]);
        let (sum, difference) = (
            [(3 << 33) + (1 << 31), 0, 0, 0],
            [(3 << 33) - (1 << 31), 0, 0, 0],
        );
        assert_eq!(lin_comb_shr31(&a, &b, 3, 1 << 31), (sum, false));
        assert_eq!(lin_comb_shr31(&a, &b, 3, -(1 << 31)), (difference, false));
        assert_eq!(lin_comb_shr31(&a, &b, -3, 1 << 31), (difference, true));
        // A 254-bit operand at the coefficient edge comes back whole.
        let p = [u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 2];
        assert_eq!(lin_comb_shr31(&p, &[0; 4], 1 << 31, 0), (p, false));
        assert_eq!(lin_comb_shr31(&[0; 4], &p, 0, -(1 << 31)), (p, true));
        assert_eq!(lin_comb_shr31(&p, &p, 1 << 31, -(1 << 31)), ([0; 4], false));
    }

    #[test]
    fn bit_len_works() {
        assert_eq!(bit_len(&[0, 0, 0, 0]), 0);
        assert_eq!(bit_len(&[1, 0, 0, 0]), 1);
        assert_eq!(bit_len(&[0, 1, 0, 0]), 65);
        assert_eq!(bit_len(&[0, 0, 0, 0x8000_0000_0000_0000]), 256);
    }

    #[test]
    fn bit_indexing() {
        let l = [0b1010u64, 1, 0, 0];
        assert!(!bit(&l, 0));
        assert!(bit(&l, 1));
        assert!(!bit(&l, 2));
        assert!(bit(&l, 3));
        assert!(bit(&l, 64));
    }
}
