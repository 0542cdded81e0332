//! Known answers derived offline with plain Python integers by
//! `tests/vectors/gen_bn254.py`, which writes the five included files
//! (CI reruns it with `--check`). Test-only.

/// One field's vectors. Every table is indexed like `operands`:
/// thirteen edge values, then 64 seeded random ones.
pub(crate) struct FieldVectors {
    pub(crate) modulus: [u64; 4],
    /// `2^256 mod p`.
    pub(crate) r: [u64; 4],
    /// `2^512 mod p`.
    pub(crate) r2: [u64; 4],
    /// `-p⁻¹ mod 2^64`.
    pub(crate) inv: u64,
    /// `2^512·2^561 mod p`, the binary-GCD inversion's starting cofactor.
    pub(crate) gcd_scale: [u64; 4],
    pub(crate) operands: &'static [[u64; 4]],
    /// `a² mod p`.
    pub(crate) squares: &'static [[u64; 4]],
    /// `pow(a, -1, p)`; zero for `a = 0`, which has none.
    pub(crate) inverses: &'static [[u64; 4]],
    /// `a·2^256 mod p`: the Montgomery limbs of `a`.
    pub(crate) to_montgomery: &'static [[u64; 4]],
    /// `a·2^-256 mod p`: the plain value of Montgomery limbs `a`.
    pub(crate) from_montgomery: &'static [[u64; 4]],
    /// `(i, j, operands[i]·operands[j] mod p)`.
    pub(crate) products: &'static [(usize, usize, [u64; 4])],
    /// `(y, 2^512·y⁻¹ mod p)`: Montgomery limbs `y` and their inverse's
    /// — `2^k` and `p − 2^k` for every `k < 254`, one-limb and
    /// top-limb-only values, and values with long zero runs.
    pub(crate) inverse_only: &'static [([u64; 4], [u64; 4])],
}

/// A point's plain `(x, y)` limbs.
pub(crate) type Xy = ([u64; 4], [u64; 4]);

/// G1 scalar multiplications by textbook affine double-and-add; scalars
/// are plain limbs below `r`.
pub(crate) struct G1Vectors {
    /// `g`, `7·g`, then two points from seeded random `x`.
    pub(crate) bases: &'static [Xy],
    /// 0, 1, 2, r − 1, r − 2, λ, λ + 1, λ − 1, 2¹²⁷ − 1, 2¹²⁷ + 1, 2¹²⁸,
    /// and the GLV basis values A, B and C.
    pub(crate) edge_scalars: &'static [[u64; 4]],
    /// `(base, k, k·bases[base])`, the identity as `None`: every edge
    /// scalar on every base, then 32 seeded pairs.
    pub(crate) products: &'static [(usize, [u64; 4], Option<Xy>)],
}

/// One encrypted answer: `(m, ρ, ρ·g, ρ·h + m·g)`, `ρ` in plain limbs,
/// the identity as `None`.
pub(crate) type Encryption = (u64, [u64; 4], Option<Xy>, Option<Xy>);

/// Exponential-ElGamal ciphertexts under one seeded key.
pub(crate) struct ElGamalVectors {
    /// The secret `k`, plain limbs.
    pub(crate) secret: [u64; 4],
    /// `h = k·g`.
    pub(crate) key: Xy,
    /// Answer vectors of 1, 4, 9 and 17 components; the 17-vector opens
    /// with `ρ = 0, m = 0` (both points the identity) and `ρ = r − 1`.
    pub(crate) vectors: &'static [&'static [Encryption]],
}

/// One multi-scalar multiplication: `(base index, scalar)` terms,
/// scalars in plain limbs below `r`, and their sum, the identity as
/// `None`.
pub(crate) type MsmSet = (&'static [(usize, [u64; 4])], Option<Xy>);

/// Multi-scalar multiplications `Σ sᵢ·Pᵢ` over a pool of bases.
pub(crate) struct MsmVectors {
    /// The identity (`None`), `g`, `−g`, 24 points from seeded random
    /// `x`, and the negation of the first of those.
    pub(crate) bases: &'static [Option<Xy>],
    /// Sets of 1, 15, 16, 49, 97, 193 and 2100 terms; every set past the
    /// first opens with a repeated term, an identity base, a zero scalar,
    /// a `P`/`−P` pair under one scalar and another under two, then the
    /// scalars r − 1, r − 2, λ, λ ± 1, 2¹²⁷ ± 1, 2¹²⁸ and the GLV basis
    /// values A, B and C.
    pub(crate) sets: &'static [MsmSet],
}

/// Fixed-base table entries: `d·2^{5w}·B` at a few `(w, d)` of seeded
/// bases.
pub(crate) struct TableVectors {
    /// Two points from seeded random `x`.
    pub(crate) bases: &'static [Xy],
    /// `(base, w, d, d·2^{5w}·bases[base], its image (βx, y))`, at
    /// `(w, d)` = (0, 1), (0, 16), (12, 7) and (25, 16) of each base.
    pub(crate) entries: &'static [(usize, usize, u8, Xy, Xy)],
}

include!("field_vectors.rs");
include!("g1_vectors.rs");
include!("elgamal_vectors.rs");
include!("msm_vectors.rs");
include!("table_vectors.rs");
