//! The G1 group of BN-254: `E(F_q): y^2 = x^3 + 3`, prime order `r`.
//!
//! This is the cyclic group `G = <g>` over which the paper instantiates
//! all of its public-key primitives ("we choose the cyclic group G by
//! using the G1 subgroup of BN-128", §VI). Points are manipulated in
//! Jacobian projective coordinates internally and exposed in affine form.
//! A point has one wire format, the 64-byte `x ‖ y` of
//! [`G1Affine::to_bytes`]: transcripts, ciphertexts, the `Persist` codec
//! and calldata all carry it, as the paper's deployment does (the EVM
//! precompiles consume affine coordinates, so nothing decompresses).

use crate::arith::{mul_wide_4, sub_4};
use crate::field::{Fq, Fr};
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};
use rand::Rng;

/// A G1 point in affine coordinates. The identity is encoded by the
/// `infinity` flag (coordinates are then ignored, conventionally zero).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct G1Affine {
    /// The x-coordinate.
    pub x: Fq,
    /// The y-coordinate.
    pub y: Fq,
    /// Whether this is the point at infinity (group identity).
    pub infinity: bool,
}

/// A G1 point in Jacobian coordinates `(X, Y, Z)` representing the affine
/// point `(X/Z^2, Y/Z^3)`; `Z = 0` encodes the identity.
#[derive(Clone, Copy)]
pub struct G1Projective {
    pub(crate) x: Fq,
    pub(crate) y: Fq,
    pub(crate) z: Fq,
}

/// Buffers [`G1Affine::batch_add_assign`] reuses from call to call: the
/// slope denominators and the prefix products of their shared inversion.
#[derive(Default)]
pub struct BatchAddScratch {
    denoms: Vec<Fq>,
    prefix: Vec<Fq>,
}

/// The curve coefficient `b = 3`.
pub fn curve_b() -> Fq {
    Fq::from_u64(3)
}

impl G1Affine {
    /// The group identity (point at infinity).
    pub fn identity() -> Self {
        Self {
            x: Fq::zero(),
            y: Fq::zero(),
            infinity: true,
        }
    }

    /// The standard generator `(1, 2)`.
    pub fn generator() -> Self {
        Self {
            x: Fq::one(),
            y: Fq::from_u64(2),
            infinity: false,
        }
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Checks the curve equation `y^2 = x^3 + 3`.
    ///
    /// Because the curve has prime order, every point on the curve is in
    /// the right subgroup; no cofactor check is needed.
    pub fn is_on_curve(&self) -> bool {
        self.infinity || self.y.square() == self.x.square() * self.x + curve_b()
    }

    /// Constructs a point from affine coordinates, validating the curve
    /// equation.
    pub fn from_xy(x: Fq, y: Fq) -> Option<Self> {
        let p = Self {
            x,
            y,
            infinity: false,
        };
        p.is_on_curve().then_some(p)
    }

    /// Uncompressed 64-byte encoding: `x ‖ y` (little-endian field bytes).
    /// The identity encodes as all zeros (not a valid x for this curve, so
    /// unambiguous).
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        if !self.infinity {
            out[..32].copy_from_slice(&self.x.to_bytes_le());
            out[32..].copy_from_slice(&self.y.to_bytes_le());
        }
        out
    }

    /// Parses the 64-byte encoding, validating the curve equation.
    pub fn from_bytes(bytes: &[u8; 64]) -> Option<Self> {
        if bytes.iter().all(|&b| b == 0) {
            return Some(Self::identity());
        }
        let mut xb = [0u8; 32];
        let mut yb = [0u8; 32];
        xb.copy_from_slice(&bytes[..32]);
        yb.copy_from_slice(&bytes[32..]);
        let x = Fq::from_bytes_le(&xb)?;
        let y = Fq::from_bytes_le(&yb)?;
        Self::from_xy(x, y)
    }

    /// Samples a uniformly random group element.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (G1Projective::generator() * Fr::random(rng)).to_affine()
    }

    /// `lhs[i] + rhs[i]` for every pair: [`Self::batch_add_assign`] on a
    /// copy of `lhs`.
    pub fn batch_add(lhs: &[Self], rhs: &[Self]) -> Vec<Self> {
        let mut sums = lhs.to_vec();
        Self::batch_add_assign(&mut sums, rhs, &mut BatchAddScratch::default());
        sums
    }

    /// `accs[i] += rhs[i]` for every lane, computed in affine coordinates
    /// with one shared field inversion (all slope denominators go through
    /// [`Fq::batch_invert_in`]) — 2M + 1S for the chord plus 3M of
    /// inversion sharing per lane, against 11M for a mixed Jacobian
    /// addition, and the sums need no normalisation afterwards.
    /// Doublings, identities on either side and opposite points are
    /// handled; a slice whose lanes all need no slope inverts nothing.
    /// `scratch` carries the buffers from one call to the next.
    pub fn batch_add_assign(accs: &mut [Self], rhs: &[Self], scratch: &mut BatchAddScratch) {
        assert_eq!(accs.len(), rhs.len(), "batch_add_assign length mismatch");
        // `x2 - x1` for a chord, `2y` for a tangent, zero (which the
        // inversion skips) where the sum needs no slope.
        scratch.denoms.clear();
        scratch.denoms.extend(accs.iter().zip(rhs).map(|(p, q)| {
            if p.infinity || q.infinity {
                Fq::zero()
            } else if p.x != q.x {
                q.x - p.x
            } else if p.y == q.y {
                p.y.double()
            } else {
                Fq::zero()
            }
        }));
        Fq::batch_invert_in(&mut scratch.denoms, &mut scratch.prefix);
        for ((p, q), inv) in accs.iter_mut().zip(rhs).zip(&scratch.denoms) {
            if q.infinity {
                continue;
            }
            if p.infinity {
                *p = *q;
                continue;
            }
            if inv.is_zero() {
                // q = -p.
                *p = Self::identity();
                continue;
            }
            let slope = if p.x != q.x {
                (q.y - p.y) * *inv
            } else {
                let xx = p.x.square();
                (xx.double() + xx) * *inv
            };
            let x = slope.square() - p.x - q.x;
            p.y = slope * (p.x - x) - p.y;
            p.x = x;
        }
    }

    /// `scalars[i] · points[i]` for every lane — or `scalars[0] · points[i]`
    /// when a single scalar is given, which is then split and recoded
    /// once for the whole vector ([`crate::elgamal::DecryptionKey`]'s
    /// `decrypt_batch` multiplies every `c1` by the one secret key).
    /// Entry `i` is the group element [`G1Projective::mul_scalar`]
    /// returns, left in Jacobian coordinates so the caller can normalise
    /// it together with whatever else it has in flight.
    ///
    /// One shared scalar over `LANE_KERNEL_LANES` or more points, on an
    /// x86-64 CPU with AVX-512 IFMA, runs on the eight-lane kernel
    /// ([`crate::lanes::batch_mul_shared`]). Everything else — other
    /// CPUs, a single point, one scalar per lane — is
    /// [`Self::batch_mul_portable`].
    pub fn batch_mul(points: &[Self], scalars: &[Fr]) -> Vec<G1Projective> {
        #[cfg(target_arch = "x86_64")]
        if let [k] = scalars {
            if points.len() >= LANE_KERNEL_LANES {
                if let Some(products) = crate::lanes::batch_mul_shared(points, k) {
                    return products;
                }
            }
        }
        Self::batch_mul_portable(points, scalars)
    }

    /// [`Self::batch_mul`] on 64-bit limbs, on any CPU (public for the
    /// crossover rows of the `micro_primitives` bench): from
    /// `BATCH_MUL_LOCKSTEP_LANES` lanes on it is
    /// [`Self::batch_mul_lockstep`], and a shorter slice runs `mul_scalar`
    /// per lane.
    pub fn batch_mul_portable(points: &[Self], scalars: &[Fr]) -> Vec<G1Projective> {
        if points.len() >= BATCH_MUL_LOCKSTEP_LANES {
            return Self::batch_mul_lockstep(points, scalars);
        }
        assert_lane_scalars(points.len(), scalars.len());
        points
            .iter()
            .enumerate()
            .map(|(i, p)| p.to_projective().mul_scalar(&scalars[i % scalars.len()]))
            .collect()
    }

    /// The long-vector path of [`Self::batch_mul`], at any length (public
    /// for the crossover rows of the `micro_primitives` bench): the
    /// 8-entry odd-multiple tables of all lanes are built in affine
    /// coordinates in lockstep — `2P`, then seven `+2P` steps, eight
    /// shared inversions through [`Self::batch_add_assign`] — the
    /// `φ`-images cost one `β` multiplication per entry, and each lane's
    /// GLV + width-5-NAF pass then runs on mixed additions (11M) where
    /// `mul_scalar`, whose tables are Jacobian, pays general ones (16M).
    pub fn batch_mul_lockstep(points: &[Self], scalars: &[Fr]) -> Vec<G1Projective> {
        let n = points.len();
        assert_lane_scalars(n, scalars.len());
        let mut scratch = BatchAddScratch::default();
        let mut twice = points.to_vec();
        Self::batch_add_assign(&mut twice, points, &mut scratch);
        // `multiples[j·n + i] = (2j + 1)·points[i]`.
        let mut multiples = Vec::with_capacity(8 * n);
        multiples.extend_from_slice(points);
        for j in 1..8 {
            multiples.extend_from_within((j - 1) * n..);
            Self::batch_add_assign(&mut multiples[j * n..], &twice, &mut scratch);
        }
        let shared = (scalars.len() == 1).then(|| GlvRecoding::new(&scalars[0]));
        (0..n)
            .map(|i| {
                let recoding = match &shared {
                    Some(recoding) => recoding,
                    None => &GlvRecoding::new(&scalars[i]),
                };
                // The signs of the two halves are folded into the
                // tables, exactly as `mul_scalar` folds them.
                let table1: [Self; 8] = core::array::from_fn(|j| {
                    let p = multiples[j * n + i];
                    if recoding.neg1 {
                        -p
                    } else {
                        p
                    }
                });
                let table2 = table1.map(|p| {
                    let p = Self {
                        x: p.x * GLV_BETA,
                        ..p
                    };
                    if recoding.neg1 == recoding.neg2 {
                        p
                    } else {
                        -p
                    }
                });
                recoding.eval(&table1, &table2, G1Projective::add_affine)
            })
            .collect()
    }

    /// `φ(P) = (βx, y)`, which is `λ·P`; the identity stays the
    /// identity.
    pub(crate) fn endomorphism(&self) -> Self {
        Self {
            x: self.x * GLV_BETA,
            ..*self
        }
    }

    /// Converts to Jacobian coordinates.
    pub fn to_projective(&self) -> G1Projective {
        if self.infinity {
            G1Projective::identity()
        } else {
            G1Projective {
                x: self.x,
                y: self.y,
                z: Fq::one(),
            }
        }
    }
}

impl G1Projective {
    /// The group identity.
    pub fn identity() -> Self {
        Self {
            x: Fq::one(),
            y: Fq::one(),
            z: Fq::zero(),
        }
    }

    /// The standard generator.
    pub fn generator() -> Self {
        G1Affine::generator().to_projective()
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Converts to affine coordinates (one field inversion, none when
    /// `Z` is already 1 — e.g. a single fixed-base table entry).
    pub fn to_affine(&self) -> G1Affine {
        if self.z == Fq::one() {
            return G1Affine {
                x: self.x,
                y: self.y,
                infinity: false,
            };
        }
        // `inverse` is `None` exactly at the identity (`Z = 0`).
        self.scale_by(self.z.inverse().unwrap_or(Fq::zero()))
    }

    /// Converts every point to affine coordinates with one field
    /// inversion for the whole slice (Montgomery's trick over the `Z`s;
    /// identities are skipped). Entry `i` equals `points[i].to_affine()`.
    pub fn batch_to_affine(points: &[Self]) -> Vec<G1Affine> {
        let mut zinvs: Vec<Fq> = points.iter().map(|p| p.z).collect();
        Fq::batch_invert(&mut zinvs);
        points
            .iter()
            .zip(zinvs)
            .map(|(p, zinv)| p.scale_by(zinv))
            .collect()
    }

    /// The affine point `(X·zinv², Y·zinv³)` given `zinv = 1/Z`; a zero
    /// `zinv` stands for the identity (`Z = 0` has no inverse).
    fn scale_by(&self, zinv: Fq) -> G1Affine {
        if zinv.is_zero() {
            return G1Affine::identity();
        }
        let zinv2 = zinv.square();
        G1Affine {
            x: self.x * zinv2,
            y: self.y * zinv2 * zinv,
            infinity: false,
        }
    }

    /// Point doubling (Jacobian, `a = 0` formulas).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        // dbl-2009-l: A = X^2, B = Y^2, C = B^2,
        // D = 2((X+B)^2 - A - C), E = 3A, F = E^2,
        // X3 = F - 2D, Y3 = E(D - X3) - 8C, Z3 = 2YZ.
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = ((self.x + b).square() - a - c).double();
        let e = a.double() + a;
        let f = e.square();
        let x3 = f - d.double();
        let y3 = e * (d - x3) - c.double().double().double();
        let z3 = (self.y * self.z).double();
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine point.
    pub fn add_affine(&self, rhs: &G1Affine) -> Self {
        if rhs.infinity {
            return *self;
        }
        if self.is_identity() {
            return rhs.to_projective();
        }
        // madd-2007-bl.
        let z1z1 = self.z.square();
        let u2 = rhs.x * z1z1;
        let s2 = rhs.y * z1z1 * self.z;
        if u2 == self.x {
            if s2 == self.y {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = hh.double().double();
        let j = h * i;
        let r = (s2 - self.y).double();
        let v = self.x * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - z1z1 - hh;
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General Jacobian addition.
    pub fn add(&self, rhs: &Self) -> Self {
        if self.is_identity() {
            return *rhs;
        }
        if rhs.is_identity() {
            return *self;
        }
        // add-2007-bl.
        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x * z2z2;
        let u2 = rhs.x * z1z1;
        let s1 = self.y * z2z2 * rhs.z;
        let s2 = rhs.y * z1z1 * self.z;
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let r = (s2 - s1).double();
        let v = u1 * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + rhs.z).square() - z1z1 - z2z2) * h;
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// The BN-254 endomorphism `φ(x, y) = (βx, y)`, which acts on the
    /// group as multiplication by `λ`, a cube root of unity in `F_r`.
    pub(crate) fn endomorphism(&self) -> Self {
        Self {
            x: self.x * GLV_BETA,
            y: self.y,
            z: self.z,
        }
    }

    /// Scalar multiplication by a field element: a GLV split
    /// `k = k1 + k2·λ` into two signed 127-bit halves, evaluated as
    /// `k1·P + k2·φ(P)` by one interleaved width-5 NAF pass over two
    /// 8-entry odd-multiple tables — ~127 doublings and ~42 additions
    /// instead of ~254 and ~127. A vector of multiplications goes
    /// through [`G1Affine::batch_mul`], which builds all the tables in
    /// affine coordinates at once and recodes a shared scalar once.
    pub fn mul_scalar(&self, k: &Fr) -> Self {
        let recoding = GlvRecoding::new(k);
        // Odd multiples P, 3P, …, 15P of ±P, and their images under φ
        // with the sign of k2 folded in.
        let base = if recoding.neg1 { -*self } else { *self };
        let twice = base.double();
        let mut table1 = [base; 8];
        for i in 1..8 {
            table1[i] = Self::add(&table1[i - 1], &twice);
        }
        let table2 = table1.map(|p| {
            let p = p.endomorphism();
            if recoding.neg1 == recoding.neg2 {
                p
            } else {
                -p
            }
        });
        recoding.eval(&table1, &table2, Self::add)
    }
}

/// [`G1Affine::batch_mul_portable`] takes one scalar per lane or one for
/// all.
fn assert_lane_scalars(lanes: usize, scalars: usize) {
    assert!(
        scalars == lanes || scalars == 1,
        "batch_mul wants one scalar per point, or a single shared scalar"
    );
}

/// Lane count from which [`G1Affine::batch_mul`] builds its tables in
/// lockstep. Eight shared inversions buy each lane a cheaper table
/// (7 × 6M against 7 × 16M) and ~42 mixed additions in place of general
/// ones — ≈ 280M a lane, so a few lanes pay for them. Measured
/// (lockstep / per-lane `mul_scalar`, one scalar per lane, median of 41
/// alternated rounds, three runs): 1.00–1.04 at 2 lanes, 0.95–1.00 at
/// 3, 0.94–0.97 at 4, 0.90–0.92 at 8; `micro_primitives` (one scalar):
/// 0.92 at 4, 0.91 at 8, 0.87–0.88 from 64. The binary-GCD inversion moved
/// the crossover down from 6–8 lanes.
const BATCH_MUL_LOCKSTEP_LANES: usize = 4;

/// Points from which [`G1Affine::batch_mul`] takes one shared scalar to
/// the lane kernel. A pass costs eight lanes' worth however many are
/// filled, so a single point must stay on 64-bit limbs. Measured
/// (`micro_primitives`, lanes / portable, one scalar, median of three
/// runs): 1.24 at 1 lane, 0.63 at 2, 0.32 at 4, 0.17 at 8, 0.18 at 16,
/// 0.20 at 106.
#[cfg(target_arch = "x86_64")]
const LANE_KERNEL_LANES: usize = 2;

/// A scalar prepared for the interleaved GLV pass: `k = ±k1 ± k2·λ`
/// with both magnitudes in width-5 NAF.
pub(crate) struct GlvRecoding {
    pub(crate) neg1: bool,
    pub(crate) neg2: bool,
    naf1: ([i8; 128], usize),
    naf2: ([i8; 128], usize),
}

impl GlvRecoding {
    pub(crate) fn new(k: &Fr) -> Self {
        let [(k1, neg1), (k2, neg2)] = glv_split(k);
        Self {
            neg1,
            neg2,
            naf1: wnaf5(k1),
            naf2: wnaf5(k2),
        }
    }

    /// Whether `k = 0`: no digit at all.
    pub(crate) fn is_zero(&self) -> bool {
        self.naf1.1 == 0 && self.naf2.1 == 0
    }

    /// The digits of `|k1|` and `|k2|` at each position, most
    /// significant first: the pass doubles, then adds `d1·T1` and
    /// `d2·T2` for the nonzero ones.
    pub(crate) fn digits(&self) -> impl Iterator<Item = [i8; 2]> + '_ {
        (0..self.naf1.1.max(self.naf2.1))
            .rev()
            .map(|i| [self.naf1.0[i], self.naf2.0[i]])
    }

    /// `|k1|·T1 + |k2|·T2` by one interleaved pass, most significant
    /// digit first, where `table[j]` holds `(2j + 1)·T` and `add` is the
    /// addition that fits the tables' coordinates.
    fn eval<T: Copy + Neg<Output = T>>(
        &self,
        table1: &[T; 8],
        table2: &[T; 8],
        add: impl Fn(&G1Projective, &T) -> G1Projective,
    ) -> G1Projective {
        let mut acc = G1Projective::identity();
        for digits in self.digits() {
            acc = acc.double();
            for (d, table) in digits.into_iter().zip([table1, table2]) {
                if d > 0 {
                    acc = add(&acc, &table[d as usize / 2]);
                } else if d < 0 {
                    acc = add(&acc, &-table[(-d) as usize / 2]);
                }
            }
        }
        acc
    }
}

/// `β`, a primitive cube root of unity in `F_q` (Montgomery form):
/// `21888242871839275220042445260109153167277707414472061641714758635765020556616`.
pub(crate) const GLV_BETA: Fq = Fq([
    0x3350c88e13e80b9c,
    0x7dce557cdb5e56b9,
    0x6001b4b8b615564a,
    0x2682e617020217e0,
]);

// The reduced basis `(A, -B)`, `(B, C)` of the lattice
// `{(x, y) : x + y·λ ≡ 0 (mod r)}`, where `λ` is the cube root of unity
// in `F_r` with `φ(P) = λ·P` for the `β` above; `A·C + B² = r`.
pub(crate) const GLV_A: u128 = 0x6f4d8248eeb859fc8211bbeb7d4f1128;
pub(crate) const GLV_B: u128 = 0x89d3256894d213e3;
const GLV_C: u128 = 0x6f4d8248eeb859fd0be4e1541221250b;
/// `round(2^256·C / r)` and `round(2^256·B / r)`: multiplying by these
/// and keeping the high 256 bits divides by `r` without a division.
const GLV_C_OVER_R: [u64; 4] = [0x5398fd0300ff6565, 0x4ccef014a773d2d2, 0x2, 0];
const GLV_B_OVER_R: [u64; 4] = [0xd91d232ec7e0b3d7, 0x2, 0, 0];

/// Splits `k` into `(|k1|, k1 < 0)`, `(|k2|, k2 < 0)` with
/// `k1 + k2·λ ≡ k (mod r)` and both magnitudes below `2^127`.
///
/// Babai rounding against the basis above: `c1 = ⌊k·C/r⌉`,
/// `c2 = ⌊k·B/r⌉`, `(k1, k2) = (k, 0) − c1·(A, −B) − c2·(B, C)`. The
/// precomputed quotients are off by less than `1/8` for `k < 2^254`, so
/// each half stays within `5/8·(A + B) < 2^127`.
pub(crate) fn glv_split(k: &Fr) -> [(u128, bool); 2] {
    let k = k.to_plain_limbs();
    let c1 = mul_high_rounded(&k, &GLV_C_OVER_R);
    let c2 = mul_high_rounded(&k, &GLV_B_OVER_R);
    let k1 = sub_4(&sub_4(&k, &mul_128(c1, GLV_A)).0, &mul_128(c2, GLV_B)).0;
    let k2 = sub_4(&mul_128(c1, GLV_B), &mul_128(c2, GLV_C)).0;
    [signed_half(k1), signed_half(k2)]
}

/// `⌊a·b / 2^256⌉` for a product known to stay below `2^384`.
fn mul_high_rounded(a: &[u64; 4], b: &[u64; 4]) -> u128 {
    let t = mul_wide_4(a, b);
    debug_assert_eq!((t[6], t[7]), (0, 0));
    (t[4] as u128 | (t[5] as u128) << 64) + (t[3] >> 63) as u128
}

/// The 256-bit product of two 128-bit integers.
fn mul_128(a: u128, b: u128) -> [u64; 4] {
    let t = mul_wide_4(
        &[a as u64, (a >> 64) as u64, 0, 0],
        &[b as u64, (b >> 64) as u64, 0, 0],
    );
    [t[0], t[1], t[2], t[3]]
}

/// Reads a two's-complement 256-bit value as `(magnitude, negative)`.
fn signed_half(v: [u64; 4]) -> (u128, bool) {
    let neg = v[3] >> 63 == 1;
    let v = if neg { sub_4(&[0; 4], &v).0 } else { v };
    assert!(
        v[2] == 0 && v[3] == 0 && v[1] >> 63 == 0,
        "GLV half exceeds 127 bits"
    );
    (v[0] as u128 | (v[1] as u128) << 64, neg)
}

/// Width-5 non-adjacent form of `k < 2^127`, least significant digit
/// first: digits are zero or odd in `[-15, 15]`, and any two nonzero
/// digits are at least five positions apart. Returns the digits and
/// how many are significant.
fn wnaf5(mut k: u128) -> ([i8; 128], usize) {
    let mut digits = [0i8; 128];
    let mut len = 0;
    while k != 0 {
        if k & 1 == 1 {
            let d = (k & 31) as i8;
            if d < 16 {
                digits[len] = d;
                k -= d as u128;
            } else {
                digits[len] = d - 32;
                k += (32 - d) as u128;
            }
        }
        k >>= 1;
        len += 1;
    }
    (digits, len)
}

impl Default for G1Projective {
    fn default() -> Self {
        Self::identity()
    }
}

impl Default for G1Affine {
    fn default() -> Self {
        Self::identity()
    }
}

impl PartialEq for G1Projective {
    fn eq(&self, other: &Self) -> bool {
        // (X1/Z1^2, Y1/Z1^3) == (X2/Z2^2, Y2/Z2^3) cross-multiplied.
        match (self.is_identity(), other.is_identity()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            (false, false) => {
                let z1z1 = self.z.square();
                let z2z2 = other.z.square();
                self.x * z2z2 == other.x * z1z1
                    && self.y * z2z2 * other.z == other.y * z1z1 * self.z
            }
        }
    }
}
impl Eq for G1Projective {}

impl Neg for G1Projective {
    type Output = Self;
    fn neg(self) -> Self {
        if self.is_identity() {
            self
        } else {
            Self {
                x: self.x,
                y: -self.y,
                z: self.z,
            }
        }
    }
}

impl Neg for G1Affine {
    type Output = Self;
    fn neg(self) -> Self {
        if self.infinity {
            self
        } else {
            Self {
                x: self.x,
                y: -self.y,
                infinity: false,
            }
        }
    }
}

impl Add for G1Projective {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        G1Projective::add(&self, &rhs)
    }
}

impl Add<G1Affine> for G1Projective {
    type Output = Self;
    fn add(self, rhs: G1Affine) -> Self {
        self.add_affine(&rhs)
    }
}

impl AddAssign for G1Projective {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for G1Projective {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        self + (-rhs)
    }
}

impl SubAssign for G1Projective {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl Mul<Fr> for G1Projective {
    type Output = Self;
    fn mul(self, k: Fr) -> Self {
        self.mul_scalar(&k)
    }
}

impl Mul<Fr> for G1Affine {
    type Output = G1Projective;
    fn mul(self, k: Fr) -> G1Projective {
        self.to_projective().mul_scalar(&k)
    }
}

impl Sum for G1Projective {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::identity(), |a, b| a + b)
    }
}

impl fmt::Debug for G1Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infinity {
            write!(f, "G1(inf)")
        } else {
            write!(f, "G1({:?}, {:?})", self.x, self.y)
        }
    }
}

impl fmt::Debug for G1Projective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_affine(), f)
    }
}

/// Multi-scalar multiplication: `Σ scalars[i] · bases[i]`.
///
/// Deliberately naive — one independent [`G1Projective::mul_scalar`] per
/// point, no buckets and no shared doublings; the SNARK baseline's
/// proving cost (Table I) is dominated by these MSMs, mirroring the
/// libsnark prover the paper measured against.
pub fn msm(bases: &[G1Affine], scalars: &[Fr]) -> G1Projective {
    assert_eq!(bases.len(), scalars.len(), "msm length mismatch");
    let mut acc = G1Projective::identity();
    for (b, s) in bases.iter().zip(scalars) {
        if s.is_zero() || b.infinity {
            continue;
        }
        acc += b.to_projective().mul_scalar(s);
    }
    acc
}

/// Windowed-bucket (Pippenger) multi-scalar multiplication:
/// `Σ scalars[i] · bases[i]`, the group element [`msm`] returns.
///
/// The settlement fold (`vpke::batch_verify_each`) is its one production
/// caller: a batch of VPKE verification equations, folded into one MSM.
/// The bucket phase is laid out by [`BucketPlan`]: a short scalar — it
/// or its negation below `2^127`, as the fold's per-item weights are —
/// is one signed half over `P`, and every other scalar is GLV-split into
/// two signed halves below `2^127` over `P` and `φ(P)` (the split
/// [`G1Projective::mul_scalar`] uses). Either way a pass has `⌈128/c⌉`
/// windows instead of `⌈256/c⌉`, and each half is recoded into signed
/// `c`-bit digits in `(−2^(c−1), 2^(c−1)]`, so a window has `2^(c−1)`
/// buckets and a negative digit adds `−P`; the top window has room for
/// the last carry. `c` minimises an addition count (`window_bits`). On
/// an x86-64 CPU with AVX-512 IFMA, and when every base is on the
/// curve, the bucket sums (`lanes::msm_buckets`) and the running-sum
/// aggregation, eight windows a pass (`lanes::msm_combine`), run on the
/// eight lanes; everywhere else this is [`msm_pippenger_portable`],
/// which is also the lanes' oracle. The windows are weighed by
/// `2^(c·w)` on 64-bit limbs either way. Below `PIPPENGER_POINTS`
/// points it is [`msm`].
pub fn msm_pippenger(bases: &[G1Affine], scalars: &[Fr]) -> G1Projective {
    assert_eq!(bases.len(), scalars.len(), "msm length mismatch");
    #[cfg(target_arch = "x86_64")]
    if bases.len() >= PIPPENGER_POINTS
        && crate::lanes::has_ifma()
        && bases.iter().all(G1Affine::is_on_curve)
    {
        let plan = BucketPlan::new(bases, scalars, LANE_COSTS);
        let total = crate::lanes::msm_buckets(&plan)
            .and_then(|buckets| crate::lanes::msm_combine(&plan, &buckets));
        if let Some(total) = total {
            return total;
        }
    }
    msm_pippenger_portable(bases, scalars)
}

/// [`msm_pippenger`] on 64-bit limbs, on any CPU (public for the
/// `micro_primitives` rows): every bucket is summed by mixed additions
/// ([`G1Projective::add_affine`], whose branches take the doublings and
/// opposite points a repeated base brings), and every window by general
/// ones ([`G1Projective::add`], the same branches).
pub fn msm_pippenger_portable(bases: &[G1Affine], scalars: &[Fr]) -> G1Projective {
    assert_eq!(bases.len(), scalars.len(), "msm length mismatch");
    if bases.len() < PIPPENGER_POINTS {
        return msm(bases, scalars);
    }
    let plan = BucketPlan::new(bases, scalars, PORTABLE_COSTS);
    plan.combine(&plan.bucket_sums())
}

/// Points from which [`msm_pippenger`] lays out buckets rather than
/// running [`msm`]. Measured (median of 31 alternated rounds, random
/// bases and scalars, the cost model's `c`): bucket sums on the lanes /
/// naive 1.10 at 2 points, 0.82 at 3, 0.66 at 4, 0.49 at 6, 0.31 at 16;
/// portable / naive 1.19 at 2, 1.03 at 3, 0.96 at 4, 0.82 at 6, 0.57 at
/// 16.
const PIPPENGER_POINTS: usize = 4;

/// Bits a window pass covers: every half is below `2^127`, so
/// `⌈128/c⌉` windows leave the top one room for the recoding's carry.
const HALF_BITS: usize = 128;

/// The window widths [`window_bits`] picks from.
const WINDOW_BITS: core::ops::RangeInclusive<usize> = 2..=12;

/// What a pass's additions cost, in field products — the unit of
/// [`window_bits`]: a mixed addition into a bucket and a general
/// addition of the running-sum aggregation.
#[derive(Clone, Copy)]
struct AddCosts {
    bucket: usize,
    aggregate: usize,
}

/// On 64-bit limbs: madd-2007-bl (7M + 4S) and add-2007-bl (11M + 5S).
const PORTABLE_COSTS: AddCosts = AddCosts {
    bucket: 11,
    aggregate: 16,
};

/// On the lanes, fitted to the `msm_phases` table of the
/// `micro_primitives` bench (fold-shaped terms, half of the scalars
/// short; medians of 31 alternated rounds, 2-vCPU Xeon): a bucket entry
/// takes 0.18–0.27 of a portable one's time, 3 products of 11. A window
/// bucket is charged 8 where its two lane additions alone would be
/// about 5 (the lane aggregation reads 0.3–0.5 of the portable one):
/// the rest is what the bucket passes lose as `c` grows and their lists
/// shorten, leaving more of a pass's lanes idle. Under (3, 8) the model
/// picks the width whose bucket and aggregation phases the table reads
/// fastest together — 4 at 37 and at 75 points — and 5 at 141 points,
/// where 4 and 5 read within the box's drift of each other.
#[cfg(target_arch = "x86_64")]
const LANE_COSTS: AddCosts = AddCosts {
    bucket: 3,
    aggregate: 8,
};

/// Field products of a doubling (dbl-2009-l, 2M + 5S), `c` of which
/// weigh each window, on 64-bit limbs on either path.
const DOUBLING: usize = 7;

/// The window width for `split_points` signed points whose additions
/// cost `costs`: the `c` that minimises a pass's products — per window,
/// an addition for every point (an estimate: a digit is zero once in
/// `2^c`), the `2^c` general additions of the running sum, and `c`
/// doublings. The lane costs come from the `micro_primitives` bench's
/// `msm_phases` table, which times the three phases apart at
/// `c = 3..6`; re-derive them there.
fn window_bits(split_points: usize, costs: AddCosts) -> usize {
    WINDOW_BITS
        .min_by_key(|&c| {
            HALF_BITS.div_ceil(c)
                * (split_points * costs.bucket + (costs.aggregate << c) + c * DOUBLING)
        })
        .expect("the range is not empty")
}

/// One MSM's bucket phase, laid out: the split points and, for every
/// (window, bucket) pair — a *job* — the signed points it sums. Job `j`
/// is window `j / 2^(c−1)`, digit magnitude `j % 2^(c−1) + 1`. Public,
/// with its phases, for the `msm_phases` table of the `micro_primitives`
/// bench: [`BucketPlan::with_window`] lays it out,
/// [`BucketPlan::bucket_sums`] (or `lanes::msm_buckets`) sums the
/// buckets and [`BucketPlan::combine`] (or `lanes::msm_combine`)
/// aggregates them.
pub struct BucketPlan {
    /// The window width `c`.
    c: usize,
    /// For every base that is not the identity and whose scalar is not
    /// zero: `P` alone when the scalar is short, else `P` and then
    /// `φ(P) = (βx, y)`.
    pub(crate) points: Vec<G1Affine>,
    /// Job `j` sums `entries[starts[j]..starts[j + 1]]`.
    starts: Vec<usize>,
    /// Job by job, each job's in point order.
    entries: Vec<Entry>,
}

/// One point of a job: split point `point()`, negated or not.
#[derive(Clone, Copy)]
pub(crate) struct Entry(u32);

impl Entry {
    pub(crate) fn new(point: usize, negated: bool) -> Self {
        let packed = u32::try_from(2 * point + usize::from(negated));
        Self(packed.expect("an MSM below 2^31 split points"))
    }

    pub(crate) fn point(self) -> usize {
        self.0 as usize >> 1
    }

    pub(crate) fn negated(self) -> bool {
        self.0 & 1 == 1
    }
}

impl BucketPlan {
    /// The plan whose window width is [`window_bits`] at `costs`.
    fn new(bases: &[G1Affine], scalars: &[Fr], costs: AddCosts) -> Self {
        Self::build(bases, scalars, |split_points| {
            window_bits(split_points, costs)
        })
    }

    /// The plan at window width `c`, in `2..=12`, whatever the cost
    /// model would pick.
    pub fn with_window(bases: &[G1Affine], scalars: &[Fr], c: usize) -> Self {
        assert_eq!(bases.len(), scalars.len(), "msm length mismatch");
        Self::build(bases, scalars, |_| c)
    }

    /// The plan with the window width `window(split points)`.
    fn build(bases: &[G1Affine], scalars: &[Fr], window: impl FnOnce(usize) -> usize) -> Self {
        let mut points = Vec::with_capacity(2 * bases.len());
        let mut halves = Vec::with_capacity(2 * bases.len());
        for (p, k) in bases.iter().zip(scalars) {
            if p.infinity || k.is_zero() {
                continue;
            }
            match short_half(k) {
                Some(half) => {
                    points.push(*p);
                    halves.push(half);
                }
                None => {
                    points.extend([*p, p.endomorphism()]);
                    halves.extend(glv_split(k));
                }
            }
        }
        let c = window(points.len());
        assert!(WINDOW_BITS.contains(&c), "window width {c}");
        let (windows, buckets) = (HALF_BITS.div_ceil(c), 1 << (c - 1));
        // Every half's digits, then a counting sort of the nonzero ones
        // into their jobs.
        let mut digits = vec![0i32; halves.len() * windows];
        let mut starts = vec![0usize; windows * buckets + 1];
        for (&(k, _), row) in halves.iter().zip(digits.chunks_exact_mut(windows)) {
            signed_window_digits(k, c, row);
            for (w, &d) in row.iter().enumerate() {
                if d != 0 {
                    starts[w * buckets + d.unsigned_abs() as usize] += 1;
                }
            }
        }
        for j in 1..starts.len() {
            starts[j] += starts[j - 1];
        }
        let mut next = starts.clone();
        let mut entries = vec![Entry(0); starts[windows * buckets]];
        for (i, (&(_, negative), row)) in
            halves.iter().zip(digits.chunks_exact(windows)).enumerate()
        {
            for (w, &d) in row.iter().enumerate() {
                if d != 0 {
                    let job = w * buckets + d.unsigned_abs() as usize - 1;
                    entries[next[job]] = Entry::new(i, (d < 0) != negative);
                    next[job] += 1;
                }
            }
        }
        Self {
            c,
            points,
            starts,
            entries,
        }
    }

    /// How many (window, bucket) jobs there are.
    pub(crate) fn jobs(&self) -> usize {
        self.starts.len() - 1
    }

    /// Buckets a window has: `2^(c−1)`.
    pub(crate) fn buckets(&self) -> usize {
        1 << (self.c - 1)
    }

    /// Job `j`'s signed points.
    pub(crate) fn job(&self, j: usize) -> &[Entry] {
        &self.entries[self.starts[j]..self.starts[j + 1]]
    }

    /// Job `j`'s sum by mixed additions, in entry order.
    pub(crate) fn bucket_sum(&self, j: usize) -> G1Projective {
        self.job(j)
            .iter()
            .fold(G1Projective::identity(), |acc, &e| {
                let p = self.points[e.point()];
                acc.add_affine(&if e.negated() { -p } else { p })
            })
    }

    /// Every job's sum, on 64-bit limbs.
    pub fn bucket_sums(&self) -> Vec<G1Projective> {
        (0..self.jobs()).map(|j| self.bucket_sum(j)).collect()
    }

    /// `Σ_w 2^(c·w) · Σ_b b · buckets[w][b]`, on 64-bit limbs: every
    /// window's running-sum aggregation ([`window_sum`]), weighed by
    /// [`BucketPlan::weigh`].
    pub fn combine(&self, buckets: &[G1Projective]) -> G1Projective {
        assert_eq!(buckets.len(), self.jobs(), "one sum per job");
        self.weigh(buckets.chunks_exact(self.buckets()).map(window_sum))
    }

    /// `Σ_w 2^(c·w) · sums[w]`: top window first, `c` doublings between
    /// windows.
    pub(crate) fn weigh(
        &self,
        sums: impl DoubleEndedIterator<Item = G1Projective>,
    ) -> G1Projective {
        sums.rev().fold(G1Projective::identity(), |total, sum| {
            (0..self.c).fold(total, |t, _| t.double()) + sum
        })
    }
}

/// `Σ_b b · window[b − 1]` by running sums from the top bucket down:
/// `2·2^(c−1)` general additions.
pub(crate) fn window_sum(window: &[G1Projective]) -> G1Projective {
    let mut running = G1Projective::identity();
    let mut sum = G1Projective::identity();
    for bucket in window.iter().rev() {
        running += *bucket;
        sum += running;
    }
    sum
}

/// `k` as one signed half `(|k|, k < 0)` when `k` or `−k` is below
/// `2^127`; `None` for a scalar that takes the GLV split.
fn short_half(k: &Fr) -> Option<(u128, bool)> {
    let below = |l: [u64; 4]| {
        (l[2] == 0 && l[3] == 0 && l[1] >> 63 == 0).then(|| l[0] as u128 | (l[1] as u128) << 64)
    };
    below(k.to_plain_limbs())
        .map(|v| (v, false))
        .or_else(|| below((-*k).to_plain_limbs()).map(|v| (v, true)))
}

/// `k < 2^127` as `out.len()` signed `c`-bit digits, least significant
/// first, each in `(−2^(c−1), 2^(c−1)]`, with `Σ dᵢ·2^(c·i) = k`: a
/// window above `2^(c−1)` borrows `2^c` from the next one.
fn signed_window_digits(k: u128, c: usize, out: &mut [i32]) {
    let (radix, half) = (1i32 << c, 1i32 << (c - 1));
    let mut carry = 0;
    for (w, d) in out.iter_mut().enumerate() {
        let t = ((k >> (c * w)) as i32 & (radix - 1)) + carry;
        carry = i32::from(t > half);
        *d = t - carry * radix;
    }
    debug_assert_eq!(carry, 0, "the top window holds the last carry");
}

/// Serde support for affine points (64-byte uncompressed encoding).
impl serde::Serialize for G1Affine {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        serde::Serialize::serialize(&self.to_bytes().to_vec(), s)
    }
}
impl<'de> serde::Deserialize<'de> for G1Affine {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v: Vec<u8> = serde::Deserialize::deserialize(d)?;
        let arr: [u8; 64] = v
            .try_into()
            .map_err(|_| serde::de::Error::custom("expected 64 bytes"))?;
        G1Affine::from_bytes(&arr).ok_or_else(|| serde::de::Error::custom("invalid G1 point"))
    }
}

/// Bit-by-bit double-and-add, MSB first: the reference that the
/// differential tests hold [`G1Projective::mul_scalar`] and the
/// fixed-base tables against.
#[cfg(test)]
pub(crate) fn mul_reference(p: &G1Projective, k: &Fr) -> G1Projective {
    let limbs = k.to_plain_limbs();
    let mut acc = G1Projective::identity();
    for i in (0..crate::arith::bit_len(&limbs)).rev() {
        acc = acc.double();
        if crate::arith::bit(&limbs, i) {
            acc = G1Projective::add(&acc, p);
        }
    }
    acc
}

/// `λ`, the cube root of unity in `F_r` that [`GLV_BETA`]'s
/// endomorphism multiplies by:
/// `0x30644e72e131a029048b6e193fd84104cc37a73fec2bc5e9b8ca0b2d36636f23`
/// (only the split's lattice basis enters production code, so only
/// tests need the value itself).
#[cfg(test)]
pub(crate) fn lambda() -> Fr {
    let limbs = [
        0xb8ca0b2d36636f23,
        0xcc37a73fec2bc5e9,
        0x048b6e193fd84104,
        0x30644e72e131a029,
    ];
    Fr::from_plain_limbs(limbs).expect("λ is reduced")
}
#[cfg(test)]
impl BucketPlan {
    /// A plan at window width `c` over `points` whose first jobs are
    /// `jobs` and whose others are empty: lists the lanes' tests choose.
    pub(crate) fn from_jobs(points: Vec<G1Affine>, c: usize, jobs: &[Vec<Entry>]) -> Self {
        let total = HALF_BITS.div_ceil(c) << (c - 1);
        assert!(jobs.len() <= total, "{} jobs at c = {c}", jobs.len());
        let mut starts = vec![0];
        let mut entries = Vec::new();
        for j in 0..total {
            entries.extend(jobs.get(j).into_iter().flatten());
            starts.push(entries.len());
        }
        Self {
            c,
            points,
            starts,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::G1;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xbeef_cafe)
    }

    /// 64 big-endian hex digits (the EIP-196 form) as little-endian bytes.
    fn le_bytes_hex(hex: &str) -> [u8; 32] {
        assert_eq!(hex.len(), 64);
        let mut le = [0u8; 32];
        for (i, byte) in le.iter_mut().rev().enumerate() {
            *byte = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap();
        }
        le
    }

    fn fq_hex(hex: &str) -> Fq {
        Fq::from_bytes_le(&le_bytes_hex(hex)).expect("reduced")
    }

    /// A scalar reduced modulo `r`, as the `ecMul` precompile does.
    fn fr_hex(hex: &str) -> Fr {
        Fr::from_bytes_le_reduced(&le_bytes_hex(hex))
    }

    fn point_hex(x: &str, y: &str) -> G1Affine {
        G1Affine::from_xy(fq_hex(x), fq_hex(y)).expect("on curve")
    }

    /// The scalars every multiplication kernel is exercised on.
    fn edge_scalars() -> Vec<Fr> {
        let two = Fr::from_u64(2);
        let mut ks = vec![
            Fr::zero(),
            Fr::one(),
            two,
            -Fr::one(),
            -two,
            Fr::from_u128(u128::MAX),
            Fr::from_u128(u128::MAX) + Fr::one(),
            lambda(),
            lambda() + Fr::one(),
            lambda() - Fr::one(),
            -lambda(),
            lambda() * lambda(),
            // Long runs of ones and alternating nibbles.
            Fr::from_plain_limbs([u64::MAX, u64::MAX, u64::MAX, 0x0fff_ffff_ffff_ffff]).unwrap(),
            Fr::from_plain_limbs([0xf0f0_f0f0_f0f0_f0f0; 4].map(|l| l >> 4)).unwrap(),
            Fr::from_plain_limbs([0, u64::MAX, 0, 0]).unwrap(),
        ];
        let mut pow = Fr::one();
        for _ in 0..254 {
            ks.push(pow);
            ks.push(pow - Fr::one());
            pow = pow.double();
        }
        ks
    }

    #[test]
    fn eip196_ec_add_known_answers() {
        let g = G1Affine::generator();
        let g2 = point_hex(
            "030644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd3",
            "15ed738c0e0a7c92e7845f96b2ae9c0a68a6a449e3538fc7ff3ebf7a5a18a2c4",
        );
        let g3 = point_hex(
            "0769bf9ac56bea3ff40232bcb1b6bd159315d84715b8e679f2d355961915abf0",
            "2ab799bee0489429554fdb7c8d086475319e63b40b9c5b57cdf1ff3dd9fe2261",
        );
        let gp = g.to_projective();
        assert_eq!(gp.double().to_affine(), g2);
        assert_eq!((gp + gp).to_affine(), g2);
        assert_eq!(gp.add_affine(&g).to_affine(), g2);
        assert_eq!((gp + g2.to_projective()).to_affine(), g3);
        assert_eq!(g2.to_projective().add_affine(&g).to_affine(), g3);
        assert_eq!(G1Affine::batch_add(&[g, g], &[g, g2]), vec![g2, g3]);
        assert_eq!((gp * Fr::from_u64(2)).to_affine(), g2);
        assert_eq!((gp * Fr::from_u64(3)).to_affine(), g3);
    }

    #[test]
    fn eip196_ec_mul_known_answers() {
        // go-ethereum's bn256ScalarMul vectors chfast1 and chfast2 (the
        // second scalar is q - 1 > r) and cdetrio's (2^256 - 1)·G.
        let p = point_hex(
            "2bd3e6d0f3b142924f5ca7b49ce5b9d54c4703d7ae5648e61d02268b1a0a9fb7",
            "21611ce0a6af85915e2f1d70300909ce2e49dfad4a4619c8390cae66cefdb204",
        );
        let k = fr_hex("00000000000000000000000000000000000000000000000011138ce750fa15c2");
        let kp = point_hex(
            "070a8d6a982153cae4be29d434e8faef8a47b274a053f5a4ee2a6c9c13c31e5c",
            "031b8ce914eba3a9ffb989f9cdd5b0f01943074bf4f0f315690ec3cec6981afc",
        );
        assert_eq!((p * k).to_affine(), kp);
        let k = fr_hex("30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd46");
        let kkp = point_hex(
            "025a6f4181d2b4ea8b724290ffb40156eb0adb514c688556eb79cdea0752c2bb",
            "2eff3f31dea215f1eb86023a133a996eb6300b44da664d64251d05381bb8a02e",
        );
        assert_eq!((kp * k).to_affine(), kkp);
        let k = fr_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
        let max_g = point_hex(
            "2f588cffe99db877a4434b598ab28f81e0522910ea52b45f0adaa772b2d5d352",
            "12f42fa8fd34fb1b33d8c6a718b6590198389b26fc9d8808d971f8b009777a97",
        );
        assert_eq!((G1Affine::generator() * k).to_affine(), max_g);
    }

    #[test]
    fn group_order_known_answers() {
        let g = G1Projective::generator();
        // (r - 1)·G = -G, hence r·G = ∞.
        let minus_g = g * -Fr::one();
        assert_eq!(minus_g.to_affine(), -G1Affine::generator());
        assert!((minus_g + g).is_identity());
        // r itself, as a scalar, is zero.
        let r_bytes = {
            let mut b = [0u8; 32];
            for (i, limb) in Fr::MODULUS.iter().enumerate() {
                b[8 * i..8 * i + 8].copy_from_slice(&limb.to_le_bytes());
            }
            b
        };
        assert!((g * Fr::from_bytes_le_reduced(&r_bytes)).is_identity());
    }

    #[test]
    fn endomorphism_is_multiplication_by_lambda() {
        // β and λ are the published arkworks/gnark BN-254 GLV pair; a
        // wrong pairing (β with λ²) fails the last assertion.
        assert_eq!(
            GLV_BETA,
            fq_hex("30644e72e131a0295e6dd9e7e0acccb0c28f069fbb966e3de4bd44e5607cfd48")
        );
        assert_ne!(GLV_BETA, Fq::one());
        assert_eq!(GLV_BETA * GLV_BETA * GLV_BETA, Fq::one());
        assert_eq!(
            lambda(),
            fr_hex("30644e72e131a029048b6e193fd84104cc37a73fec2bc5e9b8ca0b2d36636f23")
        );
        assert_ne!(lambda(), Fr::one());
        assert_eq!(lambda() * lambda() * lambda(), Fr::one());
        // The basis vector `(A, −B)` is a split of zero.
        assert_eq!(Fr::from_u128(GLV_A), Fr::from_u128(GLV_B) * lambda());
        let g = G1Projective::generator();
        assert_eq!(g.endomorphism(), mul_reference(&g, &lambda()));
        assert!(g.endomorphism().to_affine().is_on_curve());
        let mut rng = rng();
        let p = G1Affine::random(&mut rng).to_projective();
        assert_eq!(p.endomorphism(), mul_reference(&p, &lambda()));
        assert!(G1Projective::identity().endomorphism().is_identity());
        let p = p.to_affine();
        assert_eq!(
            p.endomorphism(),
            mul_reference(&p.to_projective(), &lambda()).to_affine()
        );
        assert!(G1Affine::identity().endomorphism().is_identity());
    }

    #[test]
    fn glv_split_invariants() {
        let mut rng = rng();
        let mut ks = edge_scalars();
        ks.extend((0..2_000).map(|_| Fr::random(&mut rng)));
        for k in ks {
            let [(k1, neg1), (k2, neg2)] = glv_split(&k);
            assert!(k1 < 1 << 127 && k2 < 1 << 127, "k = {k:?}");
            let signed = |mag: u128, neg: bool| {
                let v = Fr::from_u128(mag);
                if neg {
                    -v
                } else {
                    v
                }
            };
            assert_eq!(
                signed(k1, neg1) + signed(k2, neg2) * lambda(),
                k,
                "k = {k:?}"
            );
        }
        assert_eq!(glv_split(&Fr::zero()), [(0, false), (0, false)]);
        assert_eq!(glv_split(&Fr::one()), [(1, false), (0, false)]);
        // -1 splits into a negative first half: the signs round-trip.
        assert_eq!(glv_split(&-Fr::one()), [(1, true), (0, false)]);
    }

    #[test]
    fn wnaf5_digits_reconstruct() {
        let mut rng = rng();
        let mut ks: Vec<u128> = vec![0, 1, 15, 16, 17, 31, 32, (1 << 127) - 1, 1 << 126];
        ks.extend((0..200).map(|_| rng.gen::<u128>() >> 1));
        for k in ks {
            let (digits, len) = wnaf5(k);
            // Σ dᵢ·2ⁱ modulo 2^128 (the top digit can sit at bit 127).
            let mut value = 0u128;
            let mut last_nonzero = None;
            for (i, &d) in digits.iter().enumerate().take(len) {
                if d == 0 {
                    continue;
                }
                assert!(d % 2 != 0 && (-15..=15).contains(&d));
                if let Some(last) = last_nonzero {
                    assert!(i - last >= 5, "digits too close for k = {k}");
                }
                last_nonzero = Some(i);
                value = value.wrapping_add((d as i128 as u128).wrapping_mul(1 << i));
            }
            assert!(digits[len..].iter().all(|&d| d == 0));
            assert_eq!(value, k);
        }
    }

    #[test]
    fn mul_scalar_matches_reference() {
        let mut rng = rng();
        let g = G1Projective::generator();
        // A non-normalised base (Z ≠ 1).
        let p = G1Affine::random(&mut rng).to_projective().double() + g;
        let mut ks = edge_scalars();
        ks.extend((0..64).map(|_| Fr::random(&mut rng)));
        for k in &ks {
            assert_eq!(g.mul_scalar(k), mul_reference(&g, k), "k = {k:?}");
        }
        for k in ks.iter().step_by(7) {
            assert_eq!(p.mul_scalar(k), mul_reference(&p, k), "k = {k:?}");
        }
        for k in ks.iter().take(20) {
            assert!(G1Projective::identity().mul_scalar(k).is_identity());
        }
    }

    #[test]
    fn batch_to_affine_matches_per_point() {
        let mut rng = rng();
        let id = G1Projective::identity();
        let pts: Vec<G1Projective> = (0..6)
            .map(|_| G1Affine::random(&mut rng).to_projective().double())
            .collect();
        let cases: Vec<Vec<G1Projective>> = vec![
            vec![],
            vec![pts[0]],
            vec![id],
            vec![id, id, id],
            vec![id, pts[0], id, id, pts[1], pts[2], id],
            vec![pts[3], G1Projective::generator(), pts[4], id],
            pts.clone(),
        ];
        for case in cases {
            let expect: Vec<G1Affine> = case.iter().map(G1Projective::to_affine).collect();
            assert_eq!(G1Projective::batch_to_affine(&case), expect);
        }
    }

    #[test]
    fn batch_add_matches_projective_addition() {
        let mut rng = rng();
        let id = G1Affine::identity();
        let p = G1Affine::random(&mut rng);
        let q = G1Affine::random(&mut rng);
        let lhs = [p, p, p, id, p, id, q];
        let rhs = [q, p, -p, q, id, id, p];
        let expect: Vec<G1Affine> = lhs
            .iter()
            .zip(&rhs)
            .map(|(a, b)| (a.to_projective() + b.to_projective()).to_affine())
            .collect();
        assert_eq!(G1Affine::batch_add(&lhs, &rhs), expect);
        assert!(G1Affine::batch_add(&[], &[]).is_empty());
    }

    #[test]
    fn batch_add_assign_handles_every_lane_kind() {
        let mut rng = rng();
        let id = G1Affine::identity();
        let p = G1Affine::random(&mut rng);
        let q = G1Affine::random(&mut rng);
        let reference = |accs: &[G1Affine], rhs: &[G1Affine]| -> Vec<G1Affine> {
            accs.iter()
                .zip(rhs)
                .map(|(a, b)| (a.to_projective() + b.to_projective()).to_affine())
                .collect()
        };
        // Chord, tangent, opposite, identity on either side and on both;
        // then slices where no lane needs a slope (nothing to invert),
        // and lengths 1 and 0 — all through one scratch.
        let cases: Vec<(Vec<G1Affine>, Vec<G1Affine>)> = vec![
            (vec![p, p, p, id, p, id, q], vec![q, p, -p, q, id, id, p]),
            (vec![id, p, id, q], vec![p, id, id, -q]),
            (vec![p], vec![q]),
            (vec![p], vec![p]),
            (vec![id], vec![id]),
            (vec![], vec![]),
            (vec![q, p, q, p, q, p, q, p, q], vec![p; 9]),
        ];
        let mut scratch = BatchAddScratch::default();
        for (mut accs, rhs) in cases {
            let expect = reference(&accs, &rhs);
            G1Affine::batch_add_assign(&mut accs, &rhs, &mut scratch);
            assert_eq!(accs, expect);
            assert!(accs.iter().all(G1Affine::is_on_curve));
        }
        // P + P + P + … in place: every step after the first is a chord.
        let mut acc = vec![p];
        for m in 2..=5u64 {
            G1Affine::batch_add_assign(&mut acc, &[p], &mut scratch);
            let expect = mul_reference(&p.to_projective(), &Fr::from_u64(m));
            assert_eq!(acc[0], expect.to_affine());
        }
    }

    #[test]
    fn batch_mul_matches_reference_on_both_paths() {
        let mut rng = rng();
        let reference = |points: &[G1Affine], scalars: &[Fr]| -> Vec<G1Projective> {
            points
                .iter()
                .enumerate()
                .map(|(i, p)| mul_reference(&p.to_projective(), &scalars[i % scalars.len()]))
                .collect()
        };
        let shared = Fr::random(&mut rng);
        for n in [
            0,
            1,
            2,
            BATCH_MUL_LOCKSTEP_LANES - 1,
            BATCH_MUL_LOCKSTEP_LANES,
            BATCH_MUL_LOCKSTEP_LANES + 1,
            20,
        ] {
            let mut points: Vec<G1Affine> = (0..n).map(|_| G1Affine::random(&mut rng)).collect();
            if n > 2 {
                // An identity lane and two lanes holding the same point.
                points[0] = G1Affine::identity();
                points[n - 1] = points[1];
            }
            let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            for scalars in [&scalars[..], &[shared]] {
                let expect = reference(&points, scalars);
                assert_eq!(G1Affine::batch_mul(&points, scalars), expect, "n = {n}");
                let portable = G1Affine::batch_mul_portable(&points, scalars);
                assert_eq!(portable, expect, "n = {n}");
                assert_eq!(
                    G1Affine::batch_mul_lockstep(&points, scalars),
                    expect,
                    "n = {n}"
                );
            }
        }
        // Edge scalars through the lockstep-built tables: both GLV sign
        // combinations, zero, and halves with long NAFs.
        let ks: Vec<Fr> = edge_scalars().into_iter().step_by(5).collect();
        let points: Vec<G1Affine> = ks.iter().map(|_| G1Affine::random(&mut rng)).collect();
        assert_eq!(
            G1Affine::batch_mul_lockstep(&points, &ks),
            reference(&points, &ks)
        );
    }

    /// `(base, k, k·base)` from the offline G1 vectors, as group elements.
    fn g1_vectors() -> (Vec<G1Affine>, Vec<(usize, Fr, G1Affine)>) {
        let point = |(x, y): crate::vectors::Xy| {
            let (x, y) = (Fq::from_plain_limbs(x), Fq::from_plain_limbs(y));
            G1Affine::from_xy(x.unwrap(), y.unwrap()).expect("on the curve")
        };
        let bases = G1.bases.iter().copied().map(point).collect();
        let products = G1
            .products
            .iter()
            .map(|&(base, k, product)| {
                let k = Fr::from_plain_limbs(k).expect("scalars are reduced");
                (base, k, product.map_or(G1Affine::identity(), point))
            })
            .collect();
        (bases, products)
    }

    #[test]
    fn kernels_match_offline_g1_vectors() {
        use crate::precomp::FixedBaseTable;
        let (bases, products) = g1_vectors();
        assert_eq!(bases[0], G1Affine::generator());
        let edges = G1.edge_scalars.len();
        assert_eq!(products.len(), bases.len() * edges + 32);
        // Jacobian results, normalised before comparing.
        let affine = |v: Vec<G1Projective>| G1Projective::batch_to_affine(&v);
        let expect: Vec<G1Affine> = products.iter().map(|&(.., kp)| kp).collect();
        let points: Vec<G1Affine> = products.iter().map(|&(b, ..)| bases[b]).collect();
        let scalars: Vec<Fr> = products.iter().map(|&(_, k, _)| k).collect();
        for (i, &(b, k, kp)) in products.iter().enumerate() {
            assert_eq!(
                bases[b].to_projective().mul_scalar(&k).to_affine(),
                kp,
                "{i}"
            );
        }
        // One scalar per lane: the lockstep path, and per-lane `mul_scalar`
        // on slices below its threshold.
        assert_eq!(affine(G1Affine::batch_mul(&points, &scalars)), expect);
        assert_eq!(
            affine(G1Affine::batch_mul_portable(&points, &scalars)),
            expect
        );
        for (p, (k, e)) in points
            .chunks(3)
            .zip(scalars.chunks(3).zip(expect.chunks(3)))
        {
            assert_eq!(affine(G1Affine::batch_mul_portable(p, k)), e);
        }
        // One scalar on every base: the edge rows, base-major. Both sizes
        // of the portable path (4 and 12 lanes) and, where the CPU has
        // it, the lane kernel (one partial pass, then one full and one
        // partial pass).
        for e in 0..edges {
            let k = products[e].1;
            let rows: Vec<G1Affine> = (0..bases.len()).map(|b| expect[b * edges + e]).collect();
            let long: Vec<G1Affine> = bases.repeat(3);
            let long_expect: Vec<G1Affine> = rows.repeat(3);
            assert_eq!(affine(G1Affine::batch_mul_portable(&bases, &[k])), rows);
            assert_eq!(
                affine(G1Affine::batch_mul_portable(&long, &[k])),
                long_expect
            );
            assert_eq!(affine(G1Affine::batch_mul(&long, &[k])), long_expect);
            #[cfg(target_arch = "x86_64")]
            for (points, expect) in [(&bases, &rows), (&long, &long_expect)] {
                if let Some(got) = crate::lanes::batch_mul_shared(points, &k) {
                    assert_eq!(&affine(got), expect, "edge scalar {e} on the lanes");
                }
            }
        }
        // Fixed-base tables: per lane, then the whole list in one call to
        // each kernel — lockstep and, where the CPU has them, the lanes —
        // every base's products over its own table, the generator's
        // every other time over the process-wide one instead.
        let tables: Vec<FixedBaseTable> = bases.iter().map(FixedBaseTable::new).collect();
        for &(b, k, kp) in &products {
            assert_eq!(tables[b].mul(&k).to_affine(), kp);
        }
        let lanes: Vec<(&FixedBaseTable, Fr)> = products
            .iter()
            .enumerate()
            .map(|(i, &(b, k, _))| match b {
                0 if i % 2 == 1 => (crate::precomp::generator_table(), k),
                _ => (&tables[b], k),
            })
            .collect();
        assert_eq!(FixedBaseTable::mul_lockstep(&lanes), expect);
        #[cfg(target_arch = "x86_64")]
        if let Some(got) = crate::lanes::fixed_base_mul(&lanes) {
            assert_eq!(affine(got), expect, "the products on the lanes");
        }
    }

    #[test]
    #[should_panic(expected = "one scalar per point")]
    fn batch_mul_rejects_a_ragged_scalar_slice() {
        let g = G1Affine::generator();
        G1Affine::batch_mul(&[g, g, g], &[Fr::one(), Fr::one()]);
    }

    #[test]
    fn generator_on_curve() {
        assert!(G1Affine::generator().is_on_curve());
        assert!(G1Affine::identity().is_on_curve());
    }

    #[test]
    fn doubling_matches_addition() {
        let g = G1Projective::generator();
        assert_eq!(g.double(), g + g);
        let g4 = g.double().double();
        assert_eq!(g4, g + g + g + g);
    }

    #[test]
    fn identity_laws() {
        let g = G1Projective::generator();
        let id = G1Projective::identity();
        assert_eq!(g + id, g);
        assert_eq!(id + g, g);
        assert_eq!(g - g, id);
        assert_eq!(id.double(), id);
        assert!(id.to_affine().is_identity());
    }

    #[test]
    fn mixed_addition_consistent() {
        let mut rng = rng();
        for _ in 0..10 {
            let p = G1Affine::random(&mut rng);
            let q = G1Affine::random(&mut rng);
            let full = p.to_projective() + q.to_projective();
            let mixed = p.to_projective().add_affine(&q);
            assert_eq!(full, mixed);
        }
        // Mixed addition degenerate cases.
        let p = G1Affine::random(&mut rng);
        assert_eq!(p.to_projective().add_affine(&p), p.to_projective().double());
        assert_eq!(
            p.to_projective().add_affine(&(-p)),
            G1Projective::identity()
        );
    }

    #[test]
    fn scalar_mul_small() {
        let g = G1Projective::generator();
        assert_eq!(g * Fr::from_u64(0), G1Projective::identity());
        assert_eq!(g * Fr::from_u64(1), g);
        assert_eq!(g * Fr::from_u64(2), g.double());
        assert_eq!(g * Fr::from_u64(5), g + g + g + g + g);
    }

    #[test]
    fn scalar_mul_distributes() {
        let mut rng = rng();
        let g = G1Projective::generator();
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        assert_eq!(g * a + g * b, g * (a + b));
        assert_eq!((g * a) * b, g * (a * b));
    }

    #[test]
    fn order_annihilates() {
        // r * P == identity for the generator: r ≡ 0 in Fr, so use (r-1)
        // then add once.
        let g = G1Projective::generator();
        let r_minus_1 = -Fr::one();
        assert_eq!(g * r_minus_1 + g, G1Projective::identity());
    }

    #[test]
    fn bytes_round_trip() {
        let mut rng = rng();
        for _ in 0..5 {
            let p = G1Affine::random(&mut rng);
            assert_eq!(G1Affine::from_bytes(&p.to_bytes()).unwrap(), p);
        }
        let id = G1Affine::identity();
        assert_eq!(G1Affine::from_bytes(&id.to_bytes()).unwrap(), id);
    }

    #[test]
    fn invalid_point_rejected() {
        // (1, 3) is not on the curve.
        assert!(G1Affine::from_xy(Fq::one(), Fq::from_u64(3)).is_none());
        let mut bytes = [0u8; 64];
        bytes[0] = 1;
        bytes[32] = 3;
        assert!(G1Affine::from_bytes(&bytes).is_none());
    }

    #[test]
    fn msm_matches_naive() {
        let mut rng = rng();
        let bases: Vec<G1Affine> = (0..8).map(|_| G1Affine::random(&mut rng)).collect();
        let scalars: Vec<Fr> = (0..8).map(|_| Fr::random(&mut rng)).collect();
        let expect: G1Projective = bases
            .iter()
            .zip(&scalars)
            .map(|(b, s)| b.to_projective() * *s)
            .sum();
        assert_eq!(msm(&bases, &scalars), expect);
    }

    /// `n` random terms, from ten on with the MSM edge cases planted in
    /// front: a repeated term (its base doubles in every bucket it lands
    /// in), the identity, a zero scalar, a `P`/`−P` pair under one scalar
    /// (the pair cancels bucket by bucket), `r − 1` and GLV edge scalars.
    fn msm_terms(n: usize, rng: &mut StdRng) -> (Vec<G1Affine>, Vec<Fr>) {
        let mut bases: Vec<G1Affine> = (0..n).map(|_| G1Affine::random(rng)).collect();
        let mut scalars: Vec<Fr> = (0..n).map(|_| Fr::random(rng)).collect();
        if n < 10 {
            return (bases, scalars);
        }
        let p = G1Affine::random(rng);
        let k = Fr::random(rng);
        let planted_bases = [bases[0], bases[0], G1Affine::identity(), bases[3], p, -p];
        let planted_scalars = [scalars[0], scalars[0], scalars[2], Fr::zero(), k, k];
        // Short scalars on either side of `2^127`, and their negations.
        let (short, long) = (Fr::from_u128(u128::MAX >> 1), Fr::from_u128(1 << 127));
        let edges = [
            -Fr::one(),
            lambda(),
            lambda() + Fr::one(),
            -lambda(),
            short,
            -short,
            long,
            -long,
        ];
        let planted = planted_bases.len();
        bases[..planted].copy_from_slice(&planted_bases);
        scalars[..planted].copy_from_slice(&planted_scalars);
        scalars[planted..planted + edges.len()].copy_from_slice(&edges);
        (bases, scalars)
    }

    #[test]
    fn pippenger_matches_naive_across_sizes() {
        let mut rng = rng();
        // Both entry points around the naive fallback and at the window
        // widths the cost model picks as the size grows.
        for n in [1usize, 3, 4, 6, 15, 16, 40, 90, 300, 2_100] {
            let (bases, scalars) = msm_terms(n, &mut rng);
            let expect = msm(&bases, &scalars);
            assert_eq!(msm_pippenger(&bases, &scalars), expect, "n = {n}");
            assert_eq!(msm_pippenger_portable(&bases, &scalars), expect, "n = {n}");
        }
        // The cost model picks inside `WINDOW_BITS` at any size and on
        // either path ...
        #[cfg(target_arch = "x86_64")]
        let costs = [PORTABLE_COSTS, LANE_COSTS];
        #[cfg(not(target_arch = "x86_64"))]
        let costs = [PORTABLE_COSTS];
        for points in (0..24).map(|e| 1usize << e) {
            for cost in costs {
                assert!(WINDOW_BITS.contains(&window_bits(points, cost)));
            }
        }
        // ... and every width in it sums correctly, portable and, where
        // the CPU has them, on the lanes.
        let (mut bases, scalars) = msm_terms(40, &mut rng);
        let expect = msm(&bases, &scalars);
        for c in WINDOW_BITS {
            let plan = BucketPlan::build(&bases, &scalars, |_| c);
            assert_eq!(plan.combine(&plan.bucket_sums()), expect, "c = {c}");
            #[cfg(target_arch = "x86_64")]
            if let Some(buckets) = crate::lanes::msm_buckets(&plan) {
                assert_eq!(plan.combine(&buckets), expect, "c = {c} on the lanes");
                let total = crate::lanes::msm_combine(&plan, &buckets);
                assert_eq!(total, Some(expect), "c = {c}, both phases on the lanes");
            }
        }
        // A base off the curve sends the whole MSM down the portable path.
        bases[7] = G1Affine {
            x: Fq::zero(),
            y: Fq::one(),
            infinity: false,
        };
        assert_eq!(
            msm_pippenger(&bases, &scalars),
            msm_pippenger_portable(&bases, &scalars)
        );
    }

    #[test]
    fn signed_window_digits_reconstruct() {
        let mut rng = rng();
        let mut ks: Vec<u128> = vec![0, 1, 2, (1 << 127) - 1, 1 << 126, u128::MAX >> 2];
        ks.extend((0..64).map(|_| rng.gen::<u128>() >> 1));
        for c in WINDOW_BITS {
            let half = 1i128 << (c - 1);
            let mut digits = vec![0; HALF_BITS.div_ceil(c)];
            for &k in &ks {
                signed_window_digits(k, c, &mut digits);
                // Σ dᵢ·2^(c·i) modulo 2^128 (the partial sums may not fit).
                let mut value = 0u128;
                for &d in digits.iter().rev() {
                    assert!(-half < i128::from(d) && i128::from(d) <= half, "c = {c}");
                    value = (value << c).wrapping_add(i128::from(d) as u128);
                }
                assert_eq!(value, k, "c = {c}, k = {k}");
            }
        }
    }

    #[test]
    fn msm_matches_offline_vectors() {
        for (points, scalars, expect) in offline_msms(crate::vectors::MSM.sets) {
            let n = points.len();
            assert_eq!(msm(&points, &scalars).to_affine(), expect, "naive, n = {n}");
            let portable = msm_pippenger_portable(&points, &scalars);
            assert_eq!(portable.to_affine(), expect, "portable, n = {n}");
            // On the lanes where the CPU has them.
            let got = msm_pippenger(&points, &scalars);
            assert_eq!(got.to_affine(), expect, "n = {n}");
        }
    }

    #[test]
    fn short_scalar_msms_match_offline_vectors() {
        for (points, scalars, expect) in offline_msms(crate::vectors::MSM.short_sets) {
            let n = points.len();
            assert_eq!(
                msm_pippenger(&points, &scalars).to_affine(),
                expect,
                "n = {n}"
            );
            assert_eq!(
                msm_pippenger_portable(&points, &scalars).to_affine(),
                expect,
                "portable, n = {n}"
            );
            // At forced widths, portable and, where the CPU has them, on
            // the lanes.
            for c in [2, 3, 4, 5, 6, 9, 12] {
                let plan = BucketPlan::with_window(&points, &scalars, c);
                let buckets = plan.bucket_sums();
                assert_eq!(
                    plan.combine(&buckets).to_affine(),
                    expect,
                    "portable, n = {n}, c = {c}"
                );
                #[cfg(target_arch = "x86_64")]
                if let Some(lanes) = crate::lanes::msm_buckets(&plan) {
                    let total = crate::lanes::msm_combine(&plan, &lanes).expect("IFMA");
                    assert_eq!(total.to_affine(), expect, "lanes, n = {n}, c = {c}");
                }
            }
        }
    }

    /// The offline sets' terms as points and scalars, with their sums.
    fn offline_msms(sets: &[crate::vectors::MsmSet]) -> Vec<(Vec<G1Affine>, Vec<Fr>, G1Affine)> {
        let point = |xy: Option<([u64; 4], [u64; 4])>| {
            xy.map_or(G1Affine::identity(), |(x, y)| {
                let (x, y) = (Fq::from_plain_limbs(x), Fq::from_plain_limbs(y));
                G1Affine::from_xy(x.unwrap(), y.unwrap()).expect("on the curve")
            })
        };
        let bases: Vec<G1Affine> = crate::vectors::MSM
            .bases
            .iter()
            .map(|&b| point(b))
            .collect();
        sets.iter()
            .map(|&(terms, sum)| {
                let points = terms.iter().map(|&(b, _)| bases[b]).collect();
                let scalars = terms
                    .iter()
                    .map(|&(_, k)| Fr::from_plain_limbs(k).expect("scalars are reduced"))
                    .collect();
                (points, scalars, point(sum))
            })
            .collect()
    }

    #[test]
    fn negation() {
        let mut rng = rng();
        let p = G1Affine::random(&mut rng).to_projective();
        assert_eq!(p + (-p), G1Projective::identity());
        assert_eq!(-(-p), p);
    }
}
