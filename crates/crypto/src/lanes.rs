//! Eight lanes per field product: the AVX-512 IFMA kernel under the
//! shared-scalar branch of [`G1Affine::batch_mul`] (decryption), under
//! `EncryptionKey::encrypt_batch`'s fixed-base tables (encryption), under
//! the bucket phase of `msm_pippenger` (settlement verification) and
//! under the build of those tables (`FixedBaseTable::new_batch`).
//!
//! An `Fq8` holds eight `Fq` elements in radix 2⁵² — five 52-bit limbs
//! a lane, limb `j` of all eight lanes in one 512-bit register — in
//! Montgomery form with `R′ = 2²⁶⁰`, every value kept in `[0, 2p)`. Its
//! product is one CIOS pass over the five limbs on `vpmadd52luq` /
//! `vpmadd52huq` (the low and high 52 bits of a 52 × 52-bit product,
//! added into a 64-bit accumulator, which has room for the unreduced
//! column sums): since `4p < R′`, two operands below `2p` give a product
//! below `2p`, with no final subtraction. On the lanes sit the doubling
//! and mixed addition [`G1Projective`] uses, and three multiplications:
//!
//! * [`batch_mul_shared`]: one scalar's GLV + width-5 NAF pass over up
//!   to eight bases at a time. The scalar is shared, so every lane takes
//!   the same digits and the code has no per-lane branch.
//! * [`fixed_base_mul`]: eight `(table, scalar)` lanes at a time, each
//!   lane with its own [`FixedBaseTable`] and its own GLV-split signed
//!   digits. A step — one window of one half — gathers every lane's
//!   entry from its own table (its `φ` image for the `k2` half), negates
//!   by a sign mask and runs one mixed addition; per-lane masks decide
//!   which lanes keep it. Lanes on different tables share a pass, so
//!   `EncryptionKey::encrypt_batch`'s `N` lanes on the generator's table
//!   and `N` on a key's fill `⌈2N/8⌉` passes.
//! * `msm_buckets`: the bucket sums of one multi-scalar multiplication
//!   (`g1::BucketPlan`: GLV-split points, signed window digits). Each
//!   (window, bucket) list of ±points is a job; jobs go eight per pass,
//!   longest first, every lane gathering its own points from one
//!   lane-form copy of the split points, converted once per call. A
//!   lane's first point loads with `Z = 1`, each later one is a mixed
//!   addition under a mask of the lanes whose list is still running.
//! * [`fixed_base_tables`]: eight keys' [`FixedBaseTable`]s a pass, one
//!   key a lane, every step shared — the doubling chain, the affine
//!   chords of the digit multiples, and the normalisations, whose
//!   inversions serve all eight lanes at once.
//!
//! The formulas are not complete: an addition of a point to itself or
//! to its negation leaves `Z = 0`, every later step keeps it there, and
//! every multiplication recomputes such a lane on the portable path
//! ([`G1Projective::mul_scalar`], [`FixedBaseTable::mul`],
//! `BucketPlan::bucket_sum`). Under [`batch_mul_shared`] and
//! [`fixed_base_mul`] the GLV split rules that out on the curve: the
//! accumulator is `c₁·P + c₂·φ(P)` and an entry `e·P` or `e·φ(P)`, so a
//! collision needs a nonzero vector `(x, y)` of the GLV lattice
//! (`x + y·λ ≡ 0 mod r`) with both coordinates within the split's bound
//! plus a digit. Under [`batch_mul_shared`] (width-5 NAF, entries up to
//! `15·P`) every such vector has a coordinate 1.6 times that. Under
//! [`fixed_base_mul`] `c₁` and `c₂` are sums of some of a half's terms
//! `dᵢ·2^{5i}`; a half is below `5/8·(A + B) < 2.18·2¹²⁵`, so its top
//! digit is at most 2 and every coordinate stays below `2.52·2¹²⁵`, while
//! the shortest lattice vectors, `(A, −B)` and `(B, C)`, have one of
//! `A ≈ C ≈ 3.48·2¹²⁵` (and the zero vector would be a half's partial
//! sum equal to its next entry, which the digit bound rules out; a
//! 128-bit half never wraps modulo `r`). For those two the check is a
//! net, not a path, and the tests reach it only with a split no scalar
//! has — the digits of `(A, −B)`, a second split of zero. Under
//! `msm_buckets` it is a path: the points are chosen by whoever
//! submitted the proofs, and a repeated base, opposite points, or a list
//! that sums through the identity (which the tests build) ends its lane
//! at `Z = 0`, and only that job is summed again. The identity and
//! points off the curve (whose multiples may meet those sums, or the
//! identity, while the tables are built) go to the portable path up
//! front — under [`fixed_base_mul`], the lanes of such a table only;
//! under `msm_buckets`, the whole MSM (`msm_pippenger` takes the lanes
//! only when every base is on the curve, and the identity is never a
//! split point).
//!
//! Every function that touches a 512-bit register is compiled for
//! `avx512ifma` (which implies AVX-512F), and safe code reaches them only
//! through [`batch_mul_shared`], [`fixed_base_mul`], `msm_buckets`,
//! [`fixed_base_tables`] and [`mul_chain`], after `has_ifma` saw the
//! feature at run time — the crate's one CPU probe.

use crate::field::{Fq, Fr};
use crate::g1::{BucketPlan, Entry, G1Affine, G1Projective, GlvRecoding, GLV_BETA};
use crate::precomp::{
    entry_index, generator_table, split_digits, FixedBaseTable, SplitDigits, TABLE_ENTRIES,
    WINDOWS, WINDOW_BITS,
};
use core::arch::x86_64::{
    __m512i, __mmask8, _mm512_add_epi64, _mm512_and_si512, _mm512_cmplt_epi64_mask,
    _mm512_madd52hi_epu64, _mm512_madd52lo_epu64, _mm512_mask_blend_epi64, _mm512_or_si512,
    _mm512_set1_epi64, _mm512_set_epi64, _mm512_setzero_si512, _mm512_slli_epi64,
    _mm512_srai_epi64, _mm512_srli_epi64, _mm512_sub_epi64,
};
use core::array::from_fn;
use std::sync::{Mutex, OnceLock};

/// Points per pass: one per 64-bit lane of a 512-bit register.
pub const LANES: usize = 8;

const MASK: u64 = (1 << 52) - 1;
/// `p` in 52-bit limbs.
const P: [u64; 5] = split(Fq::MODULUS);
/// `2p`, the bound every lane value stays below.
const TWO_P: [u64; 5] = twice(P);
/// `−p⁻¹ mod 2⁵²`.
const INV: u64 = Fq::INV & MASK;
/// `−p⁻¹ mod 16`.
const INV16: u64 = Fq::INV & 15;

/// Whether this CPU runs the lane kernel.
pub(crate) fn has_ifma() -> bool {
    is_x86_feature_detected!("avx512ifma")
}

/// `k · points[i]` for every lane, on the lanes: the group element
/// [`G1Projective::mul_scalar`] returns, left in Jacobian coordinates,
/// or `None` when this CPU has no AVX-512 IFMA. [`G1Affine::batch_mul`]
/// calls it for one shared scalar from two points on; public for the
/// crossover rows of the `micro_primitives` bench.
///
/// The scalar is split and recoded once. Each chunk of eight bases
/// builds its own odd-multiple tables, so memory does not grow with the
/// vector. The identity, a point off the curve, and a lane whose
/// formulas met an exceptional addition (`Z = 0` at the end) are
/// computed with `mul_scalar` instead.
pub fn batch_mul_shared(points: &[G1Affine], k: &Fr) -> Option<Vec<G1Projective>> {
    if !has_ifma() {
        return None;
    }
    // SAFETY: `has_ifma()` just saw AVX-512 IFMA, the only feature
    // `batch_mul_shared_ifma` is compiled for.
    Some(unsafe { batch_mul_shared_ifma(points, k) })
}

#[target_feature(enable = "avx512ifma")]
fn batch_mul_shared_ifma(points: &[G1Affine], k: &Fr) -> Vec<G1Projective> {
    let recoding = GlvRecoding::new(k);
    if recoding.is_zero() {
        return vec![G1Projective::identity(); points.len()];
    }
    let mut out = Vec::with_capacity(points.len());
    for chunk in points.chunks(LANES) {
        let on_curve: [bool; LANES] =
            from_fn(|i| chunk.get(i).is_some_and(|p| !p.infinity && p.is_on_curve()));
        // Lanes the kernel does not take run on `g`, and are overwritten.
        let bases = from_fn(|i| {
            if on_curve[i] {
                chunk[i]
            } else {
                G1Affine::generator()
            }
        });
        let products = mul_chunk(bases, &recoding);
        out.extend(
            chunk
                .iter()
                .zip(on_curve)
                .zip(products)
                .map(|((p, on_curve), q)| {
                    if on_curve && !q.is_identity() {
                        q
                    } else {
                        p.to_projective().mul_scalar(k)
                    }
                }),
        );
    }
    out
}

/// Every job's sum of an MSM's bucket `plan`, on the lanes: the group
/// element [`BucketPlan::bucket_sum`] returns, left in Jacobian
/// coordinates, or `None` when this CPU has no AVX-512 IFMA.
/// `msm_pippenger` is its one caller, and only with bases on the curve.
///
/// The split points are converted to lane form once for the call, and
/// the non-empty jobs go eight per pass, longest first
/// ([`bucket_chunk`]), each lane gathering its own points. A lane that
/// ends at `Z = 0` met an exceptional addition — a doubling, opposite
/// points, or the identity on the way, which repeated bases can plant —
/// and its job is summed again by [`BucketPlan::bucket_sum`].
pub(crate) fn msm_buckets(plan: &BucketPlan) -> Option<Vec<G1Projective>> {
    if !has_ifma() {
        return None;
    }
    // SAFETY: `has_ifma()` just saw AVX-512 IFMA, the only feature
    // `msm_buckets_ifma` is compiled for.
    Some(unsafe { msm_buckets_ifma(plan) })
}

#[target_feature(enable = "avx512ifma")]
fn msm_buckets_ifma(plan: &BucketPlan) -> Vec<G1Projective> {
    let rows: Vec<Row> = plan.points.iter().map(lane_row).collect();
    let mut order: Vec<usize> = (0..plan.jobs())
        .filter(|&j| !plan.job(j).is_empty())
        .collect();
    order.sort_by_key(|&j| core::cmp::Reverse(plan.job(j).len()));
    let mut sums = vec![G1Projective::identity(); plan.jobs()];
    for pass in order.chunks(LANES) {
        let jobs = from_fn(|i| pass.get(i).map_or(&[][..], |&j| plan.job(j)));
        for (&j, q) in pass.iter().zip(bucket_chunk(&rows, jobs).to_projective()) {
            sums[j] = if q.is_identity() {
                plan.bucket_sum(j)
            } else {
                q
            };
        }
    }
    sums
}

/// The sums of eight lists of signed points, the points read from
/// `rows`, the first list the longest: every
/// lane loads its first point with `Z = 1`, and each later point is a
/// mixed addition on the lanes whose list reaches it. A lane past its
/// list's end reads `rows[0]`, unused.
#[target_feature(enable = "avx512ifma")]
fn bucket_chunk(rows: &[Row], jobs: [&[Entry]; LANES]) -> Jac8 {
    let mut acc = Jac8 {
        x: Fq8::zero(),
        y: Fq8::zero(),
        z: Fq8::zero(),
    };
    for t in 0..jobs[0].len() {
        let entries: [Entry; LANES] =
            from_fn(|i| jobs[i].get(t).copied().unwrap_or(Entry::new(0, false)));
        let point = load(entries.map(|e| &rows[e.point()]))
            .negate_where(lane_mask(entries.map(Entry::negated)));
        acc = if t == 0 {
            point.to_jacobian()
        } else {
            let live = lane_mask(jobs.map(|job| t < job.len()));
            acc.select(live, acc.add_affine(&point))
        };
    }
    acc
}

/// `table.mul(k)` for every lane `(table, k)`, on the lanes: the group
/// element [`FixedBaseTable::mul`] returns, left in Jacobian
/// coordinates, or `None` when this CPU has no AVX-512 IFMA. It takes
/// the lane list [`FixedBaseTable::mul_lockstep`] takes;
/// `EncryptionKey::encrypt_batch` passes one (its `N` lanes on the
/// generator's table, then `N` on the key's) to whichever of the two
/// kernels this CPU runs. Public for the crossover rows of the
/// `micro_primitives` bench.
///
/// Eight lanes share a pass of 52 steps, in list order — the 26 windows
/// of every lane's `k1` half, then those of its `k2` half — each lane
/// with its own GLV-split signed digits gathered from its own table.
/// The generator's table is read in lane form from a process-wide copy
/// that holds both halves, the `φ` rows `(βx, y)` beside the table's
/// own; every other table converts, for the call only, the rows its own
/// lanes' digits touch (at most 52 a lane, and each row once however
/// many lanes land on it), and its lanes get the `φ` half's `x` by one
/// lane multiplication by `β` a step, since a copy kept beside every
/// cached key table would be resident memory for every live task. The
/// lanes of a table whose base is the identity or off the curve, and a
/// lane whose formulas met an exceptional addition (`Z = 0` at the end),
/// go to their own table's `mul`.
pub fn fixed_base_mul(lanes: &[(&FixedBaseTable, Fr)]) -> Option<Vec<G1Projective>> {
    if !has_ifma() {
        return None;
    }
    let digits: Vec<SplitDigits> = lanes.iter().map(|(_, k)| split_digits(k)).collect();
    fixed_base_mul_split(lanes, &digits)
}

/// [`fixed_base_mul`] with every lane's digits given: `digits[i]` must
/// stand for lane `i`'s scalar, which a lane that ends at `Z = 0` is
/// recomputed from. The tests hand it splits no scalar has.
fn fixed_base_mul_split(
    lanes: &[(&FixedBaseTable, Fr)],
    digits: &[SplitDigits],
) -> Option<Vec<G1Projective>> {
    if !has_ifma() {
        return None;
    }
    // One source of rows per distinct table, converted as digits land.
    let mut sources: Vec<(&FixedBaseTable, LaneRows)> = Vec::new();
    let mut lane_sources = Vec::with_capacity(lanes.len());
    let mut lane_digits = Vec::with_capacity(lanes.len());
    for (&(table, _), split) in lanes.iter().zip(digits) {
        let at = sources
            .iter()
            .position(|(t, _)| core::ptr::eq(*t, table))
            .unwrap_or_else(|| {
                sources.push((table, LaneRows::of(table)));
                sources.len() - 1
            });
        let source = &mut sources[at].1;
        let split = match source {
            LaneRows::Portable => [[0; WINDOWS]; 2],
            _ => *split,
        };
        source.touch(table, &split);
        lane_sources.push(at);
        lane_digits.push(split);
    }
    let lane_rows: Vec<Option<&[Row]>> = lane_sources
        .iter()
        .map(|&at| sources[at].1.rows())
        .collect();
    // SAFETY: `has_ifma()` just saw AVX-512 IFMA, the only feature
    // `fixed_base_mul_ifma` is compiled for.
    Some(unsafe { fixed_base_mul_ifma(lanes, &lane_rows, &lane_digits) })
}

/// Signed digits a pass walks per lane: both halves' windows.
const STEPS: usize = 2 * WINDOWS;

/// `lane_rows[i]` is where lane `i` reads its table's rows, `None` for a
/// table the lanes do not take; `digits[i]` are its split digits.
#[target_feature(enable = "avx512ifma")]
fn fixed_base_mul_ifma(
    lanes: &[(&FixedBaseTable, Fr)],
    lane_rows: &[Option<&[Row]>],
    digits: &[SplitDigits],
) -> Vec<G1Projective> {
    let mut out = Vec::with_capacity(lanes.len());
    for ((lanes, lane_rows), digits) in lanes
        .chunks(LANES)
        .zip(lane_rows.chunks(LANES))
        .zip(digits.chunks(LANES))
    {
        // A lane with no digit — past the end of the list, or on a table
        // the lanes do not take — reads the generator's rows, unused.
        let rows = from_fn(|i| {
            lane_rows
                .get(i)
                .copied()
                .flatten()
                .unwrap_or(&generator_lane_table().0)
        });
        let digits =
            from_fn(|s| from_fn(|i| digits.get(i).map_or(0, |d| d[s / WINDOWS][s % WINDOWS])));
        let (acc, started) = fixed_base_chunk(rows, &digits);
        out.extend(
            lanes
                .iter()
                .zip(lane_rows)
                .zip(acc.to_projective())
                .enumerate()
                .map(|(i, ((&(table, k), rows), q))| match rows {
                    None => table.mul(&k),
                    Some(_) if started & 1 << i == 0 => G1Projective::identity(),
                    Some(_) if q.is_identity() => table.mul(&k),
                    Some(_) => q,
                }),
        );
    }
    out
}

/// The sum of the table entries the signed `digits` select (step by
/// step, the eight lanes' digits in each: step `s < 26` is window `s` of
/// the `k1` half, step `26 + w` window `w` of the `k2` half; lane `i`'s
/// entries read from `rows[i]`), and the mask of lanes that had a
/// nonzero digit (the rest are the identity, which the formulas cannot
/// represent, and hold garbage). A lane whose rows hold the `φ` half
/// after the table's own reads its `k2` entries there; a lane whose rows
/// stop at the table's own lifts them, `x` times `β`. A lane's first
/// nonzero digit loads its entry with `Z = 1`; a zero digit leaves the
/// lane as it is.
#[target_feature(enable = "avx512ifma")]
fn fixed_base_chunk(rows: [&[Row]; LANES], digits: &[[i8; LANES]; STEPS]) -> (Jac8, __mmask8) {
    let one = Fq8::splat(Fq::one());
    let zero = Fq8::zero();
    let beta = Fq8::splat(GLV_BETA);
    let lifted = lane_mask(rows.map(|r| r.len() == TABLE_ENTRIES));
    let mut acc = Jac8 {
        x: zero,
        y: zero,
        z: zero,
    };
    let mut started: __mmask8 = 0;
    for (s, &d) in digits.iter().enumerate() {
        let nonzero = lane_mask(d.map(|d| d != 0));
        if nonzero == 0 {
            continue;
        }
        let (second, w) = (s >= WINDOWS, s % WINDOWS);
        let mut entry = gather(rows, second, w, d);
        let lift = if second { nonzero & lifted } else { 0 };
        if lift != 0 {
            entry.x = entry.x.select(lift, entry.x.mul(beta));
        }
        let entry = entry.negate_where(lane_mask(d.map(|d| d < 0)));
        let (fresh, add) = (nonzero & !started, nonzero & started);
        if add != 0 {
            acc = acc.select(add, acc.add_affine(&entry));
        }
        if fresh != 0 {
            let loaded = Jac8 {
                x: entry.x,
                y: entry.y,
                z: one,
            };
            acc = acc.select(fresh, loaded);
        }
        started |= nonzero;
    }
    (acc, started)
}

/// Lane `i` holds the entry of window `w` for digit `|d[i]|` from
/// `rows[i]` — for the `second` half, from its `φ` rows where it has
/// them; a zero digit reads digit 1's row, which the caller does not
/// use.
#[target_feature(enable = "avx512ifma")]
#[inline]
fn gather(rows: [&[Row]; LANES], second: bool, w: usize, d: [i8; LANES]) -> Aff8 {
    load(from_fn(|i| {
        let half = if second && rows[i].len() > TABLE_ENTRIES {
            TABLE_ENTRIES
        } else {
            0
        };
        &rows[i][half + entry_index(w, d[i].unsigned_abs().max(1))]
    }))
}

/// Lane `i` holds the point `rows[i]`.
#[target_feature(enable = "avx512ifma")]
#[inline]
fn load(rows: [&Row; LANES]) -> Aff8 {
    let coordinate = |c: usize| {
        Fq8(from_fn(|j| {
            let l = |i: usize| rows[i][c][j] as i64;
            _mm512_set_epi64(l(7), l(6), l(5), l(4), l(3), l(2), l(1), l(0))
        }))
    };
    Aff8 {
        x: coordinate(0),
        y: coordinate(1),
    }
}

/// Bit `i` set where `lanes[i]` holds.
fn lane_mask(lanes: [bool; LANES]) -> __mmask8 {
    lanes
        .iter()
        .enumerate()
        .fold(0, |mask, (i, &lane)| mask | u8::from(lane) << i)
}

/// A table entry's `x` and `y` in the lanes' form: `a·2²⁶⁰` in 52-bit
/// limbs.
type Row = [[u64; 5]; 2];

/// Where one call's lanes read a table's entries in lane form, in the
/// table's order.
enum LaneRows {
    /// The generator's process-wide copy: every row, and every row's
    /// `φ` image after them.
    Generator,
    /// Converted for the call: the rows some lane's digit selects
    /// (`converted`); the rest stay zero and are never read for a
    /// nonzero digit.
    Touched {
        rows: Vec<Row>,
        converted: Vec<bool>,
    },
    /// A table whose base is the identity or off the curve: its lanes
    /// take no digit and go to `table.mul`.
    Portable,
}

impl LaneRows {
    /// How the lanes read `table`, before any digit has landed on it.
    fn of(table: &FixedBaseTable) -> Self {
        let base = table.entries()[0];
        if base.infinity || !base.is_on_curve() {
            LaneRows::Portable
        } else if core::ptr::eq(table, generator_table()) {
            LaneRows::Generator
        } else {
            let len = table.entries().len();
            LaneRows::Touched {
                rows: vec![[[0; 5]; 2]; len],
                converted: vec![false; len],
            }
        }
    }

    /// Converts the rows of `table` that either half of `digits`
    /// selects and no earlier lane's did.
    fn touch(&mut self, table: &FixedBaseTable, digits: &SplitDigits) {
        let LaneRows::Touched { rows, converted } = self else {
            return;
        };
        for half in digits {
            for (w, &d) in half.iter().enumerate().filter(|(_, &d)| d != 0) {
                let e = entry_index(w, d.unsigned_abs());
                if !converted[e] {
                    converted[e] = true;
                    rows[e] = lane_row(&table.entries()[e]);
                }
            }
        }
    }

    /// The rows, or `None` for a table the lanes do not take.
    fn rows(&self) -> Option<&[Row]> {
        match self {
            LaneRows::Generator => Some(&generator_lane_table().0),
            LaneRows::Touched { rows, .. } => Some(rows),
            LaneRows::Portable => None,
        }
    }
}

/// A [`FixedBaseTable`]'s entries in the lanes' form, every one, in the
/// table's order, then their `φ` images in the same order (65 KiB):
/// kept for the generator's table only.
struct LaneTable(Vec<Row>);

impl LaneTable {
    fn new(table: &FixedBaseTable) -> Self {
        let entries = table.entries();
        let images = entries.iter().map(G1Affine::endomorphism);
        Self(
            entries
                .iter()
                .copied()
                .chain(images)
                .map(|e| lane_row(&e))
                .collect(),
        )
    }
}

/// The generator's table in lane form, converted once per process.
fn generator_lane_table() -> &'static LaneTable {
    static TABLE: OnceLock<LaneTable> = OnceLock::new();
    TABLE.get_or_init(|| LaneTable::new(generator_table()))
}

/// `e` in the lanes' form.
fn lane_row(e: &G1Affine) -> Row {
    [lane_limbs(e.x), lane_limbs(e.y)]
}

/// `a·2²⁶⁰` in 52-bit limbs, below `2p`: one lane's value. `16·aR` is a
/// shift of the canonical limbs (below `2²⁵⁸`); `q`, its top limb over
/// one more than `p`'s, falls short of `16·aR / p` by less than
/// `1 + 2⁻⁴⁰`, so `16·aR − q·p` is below `2p`. No branch, where four
/// modular doublings take four.
fn lane_limbs(a: Fq) -> [u64; 5] {
    let l = split(a.0);
    let sixteen: [u64; 5] = from_fn(|j| {
        let low = if j == 0 { 0 } else { l[j - 1] >> 48 };
        (l[j] << 4 | low) & MASK
    });
    let q = sixteen[4] / (P[4] + 1);
    let mut borrow = 0i64;
    from_fn(|j| {
        let v = sixteen[j] as i64 - (q * P[j]) as i64 + borrow;
        borrow = v >> 52;
        v as u64 & MASK
    })
}

/// One table per base, on the lanes: `FixedBaseTable::new(&bases[i])`
/// entry for entry, or `None` when this CPU has no AVX-512 IFMA.
/// [`FixedBaseTable::new_batch`] calls it from `LANE_BUILD_KEYS` bases
/// on; public for the `micro_primitives` build rows.
///
/// Eight bases share a pass, one a lane. One 129-doubling chain gives
/// the 130 powers `2^k·B` — digits 1, 2, 4, 8 and 16 of every window —
/// normalised with one inversion; two rounds of affine chords
/// (`SUMS`) give the other eleven digits of every window, each round's
/// slope denominators, all windows and lanes, sharing one inversion.
/// That is three inversions a pass where the portable build takes five
/// a key, and no tangent. A base that is the identity or off the curve
/// gets [`FixedBaseTable::new`]; its lane runs on the generator, unused.
/// On the curve no step can meet the identity or an exceptional sum:
/// every point a pass holds is `c·2^{5w}·B` with `1 ≤ c ≤ 16`, far from
/// a multiple of the prime order, and a chord's two points are distinct
/// multiples of one window base.
pub fn fixed_base_tables(bases: &[G1Affine]) -> Option<Vec<FixedBaseTable>> {
    if !has_ifma() {
        return None;
    }
    // SAFETY: `has_ifma()` just saw AVX-512 IFMA, the only feature
    // `fixed_base_tables_ifma` is compiled for.
    Some(unsafe { fixed_base_tables_ifma(bases) })
}

#[target_feature(enable = "avx512ifma")]
fn fixed_base_tables_ifma(bases: &[G1Affine]) -> Vec<FixedBaseTable> {
    let mut scratch = BuildScratch::take();
    let mut out = Vec::with_capacity(bases.len());
    for chunk in bases.chunks(LANES) {
        let on_curve: [bool; LANES] =
            from_fn(|i| chunk.get(i).is_some_and(|p| !p.infinity && p.is_on_curve()));
        if !on_curve.contains(&true) {
            out.extend(chunk.iter().map(FixedBaseTable::new));
            continue;
        }
        let lanes = from_fn(|i| {
            if on_curve[i] {
                chunk[i]
            } else {
                G1Affine::generator()
            }
        });
        let tables = table_chunk(lanes, &mut scratch);
        out.extend(
            chunk
                .iter()
                .zip(on_curve)
                .zip(tables)
                .map(|((base, on_curve), entries)| {
                    if on_curve {
                        FixedBaseTable::from_entries(entries)
                    } else {
                        FixedBaseTable::new(base)
                    }
                }),
        );
    }
    scratch.give_back();
    out
}

/// The buffers a pass works in: the multiples a later sum reads, in lane
/// form ([`kept_slot`]), and a round's denominators with their prefix
/// products — about 0.2 MB, which [`BuildScratch::take`] reuses from
/// call to call.
#[derive(Default)]
struct BuildScratch {
    kept: Vec<Aff8>,
    denoms: Vec<Fq8>,
    prefix: Vec<Fq8>,
}

/// Scratches between calls: one for each call that ever ran at once.
static SCRATCH: Mutex<Vec<BuildScratch>> = Mutex::new(Vec::new());

impl BuildScratch {
    /// A scratch another call left, or a new one. Fresh pages for every
    /// call make a pass about a tenth slower (`micro_primitives`' build
    /// rows), and the calls run on threads a fan-out starts and ends, so
    /// the buffers are kept here rather than per thread.
    fn take() -> Self {
        let kept = SCRATCH.lock().ok().and_then(|mut kept| kept.pop());
        kept.unwrap_or_default()
    }

    /// Leaves the scratch for the next call.
    fn give_back(self) {
        if let Ok(mut kept) = SCRATCH.lock() {
            kept.push(self);
        }
    }
}

/// The powers `2^k·B` a table holds: digits 1, 2, 4, 8 and 16 of every
/// window, `k < 130`.
const POWERS: usize = WINDOWS * WINDOW_BITS;

/// The other eleven digit multiples of every window as chords `d = a + b`
/// of multiples the pass holds, in two rounds: the first from powers
/// alone, the second from powers and the first round's 3 and 12.
const SUMS: [&[(u8, u8, u8)]; 2] = [
    &[
        (3, 2, 1),
        (5, 4, 1),
        (6, 4, 2),
        (9, 8, 1),
        (10, 8, 2),
        (12, 8, 4),
    ],
    &[(7, 4, 3), (11, 8, 3), (13, 12, 1), (14, 12, 2), (15, 12, 3)],
];

/// Where a pass keeps multiple `d` of window `w` in lane form, for the
/// multiples it keeps: power `2^{5w + j}` at `5w + j`, then every
/// window's 3, then every window's 12.
fn kept_slot(w: usize, d: u8) -> Option<usize> {
    match d {
        1 | 2 | 4 | 8 | 16 => Some(w * WINDOW_BITS + d.trailing_zeros() as usize),
        3 => Some(POWERS + w),
        12 => Some(POWERS + WINDOWS + w),
        _ => None,
    }
}

/// The entries of eight bases' tables, lane `i`'s in `[i]`, in the
/// table's order. Every base is on the curve and not the identity.
#[target_feature(enable = "avx512ifma")]
fn table_chunk(bases: [G1Affine; LANES], scratch: &mut BuildScratch) -> [Vec<G1Affine>; LANES] {
    let BuildScratch {
        kept,
        denoms,
        prefix,
    } = scratch;
    let mut tables: [Vec<G1Affine>; LANES] = from_fn(|_| vec![G1Affine::identity(); TABLE_ENTRIES]);
    // The powers, one doubling chain normalised together: `X`, `Y` wait
    // in `kept`, `Z` in `denoms`, for one shared inversion.
    kept.clear();
    denoms.clear();
    let mut power = Aff8::from_points(bases).to_jacobian();
    for k in 0..POWERS {
        if k > 0 {
            power = power.double();
        }
        kept.push(Aff8 {
            x: power.x,
            y: power.y,
        });
        denoms.push(power.z);
    }
    invert_all(denoms, prefix);
    for (k, (p, &zinv)) in kept.iter_mut().zip(denoms.iter()).enumerate() {
        let zinv2 = zinv.square();
        *p = Aff8 {
            x: p.x.mul(zinv2),
            y: p.y.mul(zinv2.mul(zinv)),
        };
        let (w, d) = (k / WINDOW_BITS, 1 << (k % WINDOW_BITS));
        write_entry(&mut tables, entry_index(w, d), p);
    }
    kept.resize(POWERS + 2 * WINDOWS, kept[0]);
    let at = |w: usize, d: u8| kept_slot(w, d).expect("a sum reads kept multiples");
    for sums in SUMS {
        denoms.clear();
        for &(_, a, b) in sums {
            for w in 0..WINDOWS {
                denoms.push(kept[at(w, b)].x.sub(kept[at(w, a)].x));
            }
        }
        invert_all(denoms, prefix);
        for (&(d, a, b), invs) in sums.iter().zip(denoms.chunks_exact(WINDOWS)) {
            for (w, &inv) in invs.iter().enumerate() {
                let (p, q) = (kept[at(w, a)], kept[at(w, b)]);
                let slope = q.y.sub(p.y).mul(inv);
                let x = slope.square().sub(p.x).sub(q.x);
                let sum = Aff8 {
                    x,
                    y: slope.mul(p.x.sub(x)).sub(p.y),
                };
                write_entry(&mut tables, entry_index(w, d), &sum);
                if let Some(slot) = kept_slot(w, d) {
                    kept[slot] = sum;
                }
            }
        }
    }
    tables
}

/// Lane `i` of `p` as entry `e` of `tables[i]`.
#[target_feature(enable = "avx512ifma")]
fn write_entry(tables: &mut [Vec<G1Affine>; LANES], e: usize, p: &Aff8) {
    let (x, y) = (p.x.to_fq(), p.y.to_fq());
    for (table, (x, y)) in tables.iter_mut().zip(x.into_iter().zip(y)) {
        table[e] = G1Affine {
            x,
            y,
            infinity: false,
        };
    }
}

/// `1/v` for every value of every lane, none of them zero: one
/// [`Fq8::invert`] for the whole slice (Montgomery's trick, the prefix
/// products kept in `prefix`).
#[target_feature(enable = "avx512ifma")]
fn invert_all(values: &mut [Fq8], prefix: &mut Vec<Fq8>) {
    let Some((&first, rest)) = values.split_first() else {
        return;
    };
    prefix.clear();
    let mut acc = first;
    for &v in rest {
        prefix.push(acc);
        acc = acc.mul(v);
    }
    let mut inv = acc.invert();
    for (v, &before) in values[1..].iter_mut().rev().zip(prefix.iter().rev()) {
        let next = inv.mul(*v);
        *v = inv.mul(before);
        inv = next;
    }
    values[0] = inv;
}

/// `a · bⁿ` lane by lane for `n = products`, each product feeding the
/// next, or `None` without AVX-512 IFMA: the dependent chain the
/// `micro_primitives` `fq8_mul` row times.
pub fn mul_chain(a: [Fq; LANES], b: [Fq; LANES], products: usize) -> Option<[Fq; LANES]> {
    if !has_ifma() {
        return None;
    }
    // SAFETY: `has_ifma()` just saw AVX-512 IFMA, the only feature
    // `mul_chain_ifma` is compiled for.
    Some(unsafe { mul_chain_ifma(a, b, products) })
}

#[target_feature(enable = "avx512ifma")]
fn mul_chain_ifma(a: [Fq; LANES], b: [Fq; LANES], products: usize) -> [Fq; LANES] {
    let (mut acc, b) = (Fq8::from_fq(a), Fq8::from_fq(b));
    for _ in 0..products {
        acc = acc.mul(b);
    }
    acc.to_fq()
}

/// Little-endian 64-bit limbs (a value below 2²⁵⁶) as 52-bit limbs.
const fn split(l: [u64; 4]) -> [u64; 5] {
    [
        l[0] & MASK,
        (l[0] >> 52 | l[1] << 12) & MASK,
        (l[1] >> 40 | l[2] << 24) & MASK,
        (l[2] >> 28 | l[3] << 36) & MASK,
        l[3] >> 16,
    ]
}

/// 52-bit limbs of a value below 2²⁵⁶ as 64-bit limbs.
fn join(l: [u64; 5]) -> [u64; 4] {
    [
        l[0] | l[1] << 52,
        l[1] >> 12 | l[2] << 40,
        l[2] >> 24 | l[3] << 28,
        l[3] >> 36 | l[4] << 16,
    ]
}

/// Twice a value in 52-bit limbs (below 2²⁵⁹, so the top limb keeps it).
const fn twice(l: [u64; 5]) -> [u64; 5] {
    let mut out = [0; 5];
    let mut carry = 0;
    let mut j = 0;
    while j < 5 {
        let v = 2 * l[j] + carry;
        out[j] = v & MASK;
        carry = v >> 52;
        j += 1;
    }
    out
}

/// Eight `Fq` elements: `0[j]` holds limb `j` of every lane, each value
/// `a·2²⁶⁰ mod p` up to a multiple of `p`, in `[0, 2p)`, limbs below 2⁵².
#[derive(Clone, Copy)]
struct Fq8([__m512i; 5]);

#[target_feature(enable = "avx512ifma")]
#[inline]
fn splat(v: u64) -> __m512i {
    _mm512_set1_epi64(v as i64)
}

#[target_feature(enable = "avx512ifma")]
#[inline]
fn lanes_of(v: __m512i) -> [u64; LANES] {
    // SAFETY: both are 64 bytes, and every bit pattern is a valid
    // `[u64; 8]`.
    unsafe { core::mem::transmute::<__m512i, [u64; LANES]>(v) }
}

/// Carries signed limbs (each of magnitude below 2⁶²) up, leaving limbs
/// `0..4` in `[0, 2⁵²)` and the signed rest in the top limb, which is
/// negative exactly when the value is.
#[target_feature(enable = "avx512ifma")]
#[inline]
fn carry(mut l: [__m512i; 5]) -> [__m512i; 5] {
    for j in 0..4 {
        let c = _mm512_srai_epi64::<52>(l[j]);
        l[j] = _mm512_and_si512(l[j], splat(MASK));
        l[j + 1] = _mm512_add_epi64(l[j + 1], c);
    }
    l
}

/// Lane by lane, `if_negative` where `x` is negative, else `x`.
#[target_feature(enable = "avx512ifma")]
#[inline]
fn unless_negative(x: [__m512i; 5], if_negative: [__m512i; 5]) -> Fq8 {
    let negative = _mm512_cmplt_epi64_mask(x[4], _mm512_setzero_si512());
    Fq8(from_fn(|j| {
        _mm512_mask_blend_epi64(negative, x[j], if_negative[j])
    }))
}

impl Fq8 {
    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn zero() -> Self {
        Self([_mm512_setzero_si512(); 5])
    }

    /// `a` on every lane.
    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn splat(a: Fq) -> Self {
        Self::from_fq([a; LANES])
    }

    /// Lane `i` holds `a[i]`: `aR·16 = a·2²⁶⁰`, canonical, re-limbed.
    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn from_fq(a: [Fq; LANES]) -> Self {
        let l = a.map(lane_limbs);
        Self(from_fn(|j| {
            let w = |i: usize| l[i][j] as i64;
            _mm512_set_epi64(w(7), w(6), w(5), w(4), w(3), w(2), w(1), w(0))
        }))
    }

    /// The canonical `Fq` of every lane: a lane value `a·2²⁶⁰` divided by
    /// 16 is `a·2²⁵⁶`, the Montgomery form of `a`. The division adds the
    /// `k·p`, `k < 16`, that makes the value a multiple of 16 and shifts
    /// it down four bits, leaving it below `(2p + 16p)/16 < 2p`; one
    /// conditional subtraction of `p` makes it canonical.
    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn to_fq(self) -> [Fq; LANES] {
        let l = self.0;
        let zero = _mm512_setzero_si512();
        let k = _mm512_and_si512(_mm512_madd52lo_epu64(zero, l[0], splat(INV16)), splat(15));
        let mut t = l;
        for j in 0..5 {
            t[j] = _mm512_madd52lo_epu64(t[j], k, splat(P[j]));
            let high = _mm512_madd52hi_epu64(zero, k, splat(P[j]));
            if j < 4 {
                t[j + 1] = _mm512_add_epi64(t[j + 1], high);
            } else {
                t[4] = _mm512_add_epi64(t[4], _mm512_slli_epi64::<52>(high));
            }
        }
        let t = carry(t);
        let shifted: [__m512i; 5] = from_fn(|j| {
            let low = _mm512_srli_epi64::<4>(t[j]);
            if j < 4 {
                let next = _mm512_and_si512(t[j + 1], splat(15));
                _mm512_or_si512(low, _mm512_slli_epi64::<48>(next))
            } else {
                low
            }
        });
        let less_p = from_fn(|j| _mm512_sub_epi64(shifted[j], splat(P[j])));
        let canonical = unless_negative(carry(less_p), shifted);
        let words = canonical.0.map(|v| lanes_of(v));
        from_fn(|i| Fq(join(words.map(|w| w[i]))))
    }

    /// The Montgomery product `self·rhs / 2²⁶⁰`, below `2p`: for each
    /// limb `aᵢ` of `self`, `aᵢ·rhs` and then `m·p` (`m` clears the low
    /// limb) go into six 64-bit column sums, which shift down a limb.
    /// A column gathers at most twenty 52-bit terms and a carry, so it
    /// cannot overflow; one carry pass at the end re-limbs the result.
    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let (a, b) = (self.0, rhs.0);
        let zero = _mm512_setzero_si512();
        let mut t = [zero; 6];
        for ai in a {
            for j in 0..5 {
                t[j] = _mm512_madd52lo_epu64(t[j], ai, b[j]);
                t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], ai, b[j]);
            }
            let m = _mm512_madd52lo_epu64(zero, t[0], splat(INV));
            for j in 0..5 {
                let pj = splat(P[j]);
                t[j] = _mm512_madd52lo_epu64(t[j], m, pj);
                t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], m, pj);
            }
            // The low 52 bits of `t[0]` are zero now; its carry moves up.
            let c = _mm512_srai_epi64::<52>(t[0]);
            t = [_mm512_add_epi64(t[1], c), t[2], t[3], t[4], t[5], zero];
        }
        Self(carry([t[0], t[1], t[2], t[3], t[4]]))
    }

    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn square(self) -> Self {
        self.mul(self)
    }

    /// `self + rhs`, less `2p` where that stays non-negative.
    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let sum: [__m512i; 5] = from_fn(|j| _mm512_add_epi64(self.0[j], rhs.0[j]));
        let reduced = from_fn(|j| _mm512_sub_epi64(sum[j], splat(TWO_P[j])));
        unless_negative(carry(reduced), carry(sum))
    }

    /// `self − rhs`, plus `2p` where that is negative.
    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let diff: [__m512i; 5] = from_fn(|j| _mm512_sub_epi64(self.0[j], rhs.0[j]));
        let lifted = from_fn(|j| _mm512_add_epi64(diff[j], splat(TWO_P[j])));
        unless_negative(carry(diff), carry(lifted))
    }

    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn double(self) -> Self {
        self.add(self)
    }

    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn neg(self) -> Self {
        Self::zero().sub(self)
    }

    /// Lane by lane, `other` where `mask` is set, else `self`.
    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn select(self, mask: __mmask8, other: Self) -> Self {
        Self(from_fn(|j| {
            _mm512_mask_blend_epi64(mask, self.0[j], other.0[j])
        }))
    }

    /// `1/self` on every lane (zero stays zero): one `Fq` inversion for
    /// all eight, through [`Fq::batch_invert`].
    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn invert(self) -> Self {
        let mut v = self.to_fq();
        Fq::batch_invert(&mut v);
        Self::from_fq(v)
    }
}

/// Eight affine points.
#[derive(Clone, Copy)]
struct Aff8 {
    x: Fq8,
    y: Fq8,
}

/// Eight Jacobian points `(X/Z², Y/Z³)`.
#[derive(Clone, Copy)]
struct Jac8 {
    x: Fq8,
    y: Fq8,
    z: Fq8,
}

impl Aff8 {
    /// Lane `i` holds `points[i]`, which is not the identity.
    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn from_points(points: [G1Affine; LANES]) -> Self {
        Self {
            x: Fq8::from_fq(points.map(|p| p.x)),
            y: Fq8::from_fq(points.map(|p| p.y)),
        }
    }

    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn neg(self) -> Self {
        Self {
            y: self.y.neg(),
            ..self
        }
    }

    /// The points negated on the lanes `mask` sets.
    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn negate_where(self, mask: __mmask8) -> Self {
        Self {
            y: self.y.select(mask, self.y.neg()),
            ..self
        }
    }

    /// The points as Jacobian ones, `Z = 1`.
    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn to_jacobian(self) -> Jac8 {
        Jac8 {
            x: self.x,
            y: self.y,
            z: Fq8::splat(Fq::one()),
        }
    }
}

impl Jac8 {
    /// [`G1Projective::double`] (dbl-2009-l), without its identity test:
    /// `Z = 0` stays `Z = 0`.
    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn double(&self) -> Self {
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = self.x.add(b).square().sub(a).sub(c).double();
        let e = a.double().add(a);
        let x = e.square().sub(d.double());
        Self {
            x,
            y: e.mul(d.sub(x)).sub(c.double().double().double()),
            z: self.y.mul(self.z).double(),
        }
    }

    /// [`G1Projective::add_affine`] (madd-2007-bl), without its branches:
    /// a sum of a point with itself or its negation (`H = 0`), like a
    /// sum with `Z = 0`, comes out with `Z = 0`.
    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn add_affine(&self, rhs: &Aff8) -> Self {
        let z1z1 = self.z.square();
        let u2 = rhs.x.mul(z1z1);
        let s2 = rhs.y.mul(z1z1).mul(self.z);
        let h = u2.sub(self.x);
        let hh = h.square();
        let i = hh.double().double();
        let j = h.mul(i);
        let r = s2.sub(self.y).double();
        let v = self.x.mul(i);
        let x = r.square().sub(j).sub(v.double());
        Self {
            x,
            y: r.mul(v.sub(x)).sub(self.y.mul(j).double()),
            z: self.z.add(h).square().sub(z1z1).sub(hh),
        }
    }

    /// Lane by lane, `other` where `mask` is set, else `self`.
    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn select(self, mask: __mmask8, other: Self) -> Self {
        Self {
            x: self.x.select(mask, other.x),
            y: self.y.select(mask, other.y),
            z: self.z.select(mask, other.z),
        }
    }

    #[target_feature(enable = "avx512ifma")]
    #[inline]
    fn to_projective(self) -> [G1Projective; LANES] {
        let (x, y, z) = (self.x.to_fq(), self.y.to_fq(), self.z.to_fq());
        from_fn(|i| G1Projective {
            x: x[i],
            y: y[i],
            z: z[i],
        })
    }
}

/// `(2j + 1)·P` for `j < 8` on every lane, affine. `2P` comes out of the
/// doubling with `Z = u`; on the isomorphic curve `y² = x³ + 3u⁶`,
/// reached by `(x, y) ↦ (u²x, u³y)`, it is the affine point `(X, Y)`, so
/// the seven `+2P` steps are mixed additions there, and an entry's `Z`
/// back on this curve is its `Z` there times `u`. The seven `Z`s of each
/// lane share one inversion. Exceptional sums cannot occur: `P` is not
/// the identity and `(2j − 1)·P ≠ ±2P`.
#[target_feature(enable = "avx512ifma")]
fn odd_multiples(p: Aff8) -> [Aff8; 8] {
    let twice = p.to_jacobian().double();
    let u = twice.z;
    let u2 = u.square();
    let step = Aff8 {
        x: twice.x,
        y: twice.y,
    };
    let mut acc = Aff8 {
        x: p.x.mul(u2),
        y: p.y.mul(u2.mul(u)),
    }
    .to_jacobian();
    let odd: [Jac8; 7] = from_fn(|_| {
        acc = acc.add_affine(&step);
        acc
    });
    let zs = odd.map(|e| e.z.mul(u));
    let mut prefix = zs;
    for j in 1..7 {
        prefix[j] = prefix[j - 1].mul(zs[j]);
    }
    let mut inv = prefix[6].invert();
    let mut table = [p; 8];
    for j in (0..7).rev() {
        let zinv = if j == 0 {
            inv
        } else {
            let zinv = inv.mul(prefix[j - 1]);
            inv = inv.mul(zs[j]);
            zinv
        };
        let zinv2 = zinv.square();
        table[j + 1] = Aff8 {
            x: odd[j].x.mul(zinv2),
            y: odd[j].y.mul(zinv2.mul(zinv)),
        };
    }
    table
}

/// `k·bases[i]` for eight points of G1 other than the identity, where
/// `recoding` is `k`'s and not zero.
#[target_feature(enable = "avx512ifma")]
fn mul_chunk(bases: [G1Affine; LANES], recoding: &GlvRecoding) -> [G1Projective; LANES] {
    let p = Aff8::from_points(bases);
    // The signs of the two halves are folded into the tables, as
    // `mul_scalar` folds them.
    let table1 = odd_multiples(if recoding.neg1 { p.neg() } else { p });
    let beta = Fq8::splat(GLV_BETA);
    let table2 = table1.map(|e| {
        let e = Aff8 {
            x: e.x.mul(beta),
            y: e.y,
        };
        if recoding.neg1 == recoding.neg2 {
            e
        } else {
            e.neg()
        }
    });
    // The accumulator starts at the first digit, not at the identity,
    // which the formulas cannot represent.
    let mut acc: Option<Jac8> = None;
    for digits in recoding.digits() {
        if let Some(a) = &mut acc {
            *a = a.double();
        }
        for (d, table) in digits.into_iter().zip([&table1, &table2]) {
            if d != 0 {
                let e = table[usize::from(d.unsigned_abs()) / 2];
                let e = if d < 0 { e.neg() } else { e };
                acc = Some(match acc {
                    Some(a) => a.add_affine(&e),
                    None => e.to_jacobian(),
                });
            }
        }
    }
    acc.expect("a nonzero recoding has a digit").to_projective()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::g1::{lambda, mul_reference, GLV_A, GLV_B};
    use crate::precomp::signed_digits;
    use crate::vectors::{FQ, G1};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `2²⁵²`, the Montgomery form of `1/16` (`2²⁵⁶/16`): one
    /// `mul_internal` by it takes a lane value `a·2²⁶⁰` to `a·2²⁵⁶`, the
    /// canonical `Fq` — the scalar route out of lane form.
    const SIXTEENTH: Fq = Fq([0, 0, 0, 1 << 60]);

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x1fa8)
    }

    /// Whether this CPU runs the lane kernel; says so when it does not
    /// (visible under `--nocapture`), and the calling test passes.
    fn lanes_here(test: &str) -> bool {
        let here = has_ifma();
        if !here {
            println!("{test}: skipped, this CPU has no avx512ifma");
        }
        here
    }

    /// Runs `check` when this CPU has AVX-512 IFMA.
    fn on_lanes(test: &str, check: unsafe fn()) {
        if lanes_here(test) {
            // SAFETY: `lanes_here` just saw AVX-512 IFMA (through
            // `has_ifma`), the only feature a `check` is compiled for.
            unsafe { check() }
        }
    }

    /// The field vectors' operands, then 64 random ones, eight at a time.
    fn operand_octets() -> Vec<[Fq; LANES]> {
        let mut rng = rng();
        let mut values: Vec<Fq> = FQ
            .operands
            .iter()
            .map(|&a| Fq::from_plain_limbs(a).expect("operands are reduced"))
            .collect();
        values.extend((0..64).map(|_| Fq::random(&mut rng)));
        values
            .chunks(LANES)
            .map(|c| from_fn(|i| c[i % c.len()]))
            .collect()
    }

    /// `f` on every lane of `a` and `b`.
    fn each(a: &[Fq; LANES], b: &[Fq; LANES], f: impl Fn(Fq, Fq) -> Fq) -> [Fq; LANES] {
        from_fn(|i| f(a[i], b[i]))
    }

    /// The edge scalars of the G1 vectors (0, 1, 2, r − 1, r − 2, λ,
    /// λ ± 1, 2¹²⁷ ± 1, 2¹²⁸ and the GLV basis), then random ones.
    fn scalars() -> Vec<Fr> {
        let mut rng = rng();
        let mut ks: Vec<Fr> = G1
            .edge_scalars
            .iter()
            .map(|&k| Fr::from_plain_limbs(k).expect("scalars are reduced"))
            .collect();
        ks.extend((0..4).map(|_| Fr::random(&mut rng)));
        ks
    }

    #[test]
    fn constants_match_their_definitions() {
        assert_eq!(join(P), Fq::MODULUS);
        assert_eq!(
            join(TWO_P),
            crate::arith::add_4(&Fq::MODULUS, &Fq::MODULUS).0
        );
        assert_eq!(Fq::MODULUS[0].wrapping_mul(Fq::INV), u64::MAX);
        assert_eq!(Fq::from_u64(16).inverse(), Some(SIXTEENTH));
        assert_eq!(INV16 * (Fq::MODULUS[0] & 15) % 16, 15);
        for a in [[0; 4], [u64::MAX; 4], Fq::MODULUS, [1, 2, 3, 4]] {
            assert_eq!(join(split(a)), a);
            assert!(split(a).iter().all(|&l| l <= MASK));
        }
        // A lane value is below 2p and is 16·aR: the way out divides by
        // 16. Besides the field vectors' operands, Montgomery limbs on
        // either side of every `k·p/16` (where `q` steps) and p − 1.
        let k_sixteenths = (1..16u128).flat_map(|k| {
            let p = Fq::MODULUS.map(u128::from);
            let mut carry = 0;
            let wide: [u128; 4] = from_fn(|j| {
                let v = p[j] * k + carry;
                carry = v >> 64;
                v & u128::from(u64::MAX)
            });
            let floor: [u64; 4] = from_fn(|j| {
                let next = if j == 3 { carry } else { wide[j + 1] };
                (wide[j] >> 4 | next << 60) as u64
            });
            [floor, crate::arith::add_4(&floor, &[1, 0, 0, 0]).0]
        });
        let top = [crate::arith::sub_4(&Fq::MODULUS, &[1, 0, 0, 0]).0];
        let raw = k_sixteenths.chain(top).map(Fq);
        for a in operand_octets().concat().into_iter().chain(raw) {
            let v = lane_limbs(a);
            assert!(v.iter().all(|&l| l <= MASK));
            assert_ne!(crate::arith::sub_4(&join(v), &join(TWO_P)).1, 0, "{a:?}");
            assert_eq!(Fq(join(v)).mul_internal(&SIXTEENTH), a);
        }
    }

    #[test]
    fn fq8_arithmetic_matches_fq() {
        #[target_feature(enable = "avx512ifma")]
        fn check() {
            let octets = operand_octets();
            for (n, a) in octets.iter().enumerate() {
                let b = &octets[(n + 1) % octets.len()];
                let (a8, b8) = (Fq8::from_fq(*a), Fq8::from_fq(*b));
                assert_eq!(a8.to_fq(), *a, "in and out");
                assert_eq!(a8.mul(b8).to_fq(), each(a, b, |x, y| x * y));
                assert_eq!(a8.square().to_fq(), each(a, b, |x, _| x.square()));
                assert_eq!(a8.add(b8).to_fq(), each(a, b, |x, y| x + y));
                assert_eq!(a8.sub(b8).to_fq(), each(a, b, |x, y| x - y));
                assert_eq!(b8.sub(a8).to_fq(), each(a, b, |x, y| y - x));
                assert_eq!(a8.neg().to_fq(), each(a, b, |x, _| -x));
                let inverse = each(a, b, |x, _| x.inverse().unwrap_or_default());
                assert_eq!(a8.invert().to_fq(), inverse);
                assert_eq!(mul_chain_ifma(*a, *b, 3), each(a, b, |x, y| x * y * y * y));
                // The top of `[0, 2p)`: `a + p` on every lane.
                let high = Fq8(carry(from_fn(|j| _mm512_add_epi64(a8.0[j], splat(P[j])))));
                assert_eq!(high.to_fq(), *a);
                assert_eq!(high.mul(high).to_fq(), each(a, b, |x, _| x.square()));
                assert_eq!(high.add(high).to_fq(), each(a, b, |x, _| x.double()));
                assert_eq!(high.sub(b8).to_fq(), each(a, b, |x, y| x - y));
                assert_eq!(b8.sub(high).to_fq(), each(a, b, |x, y| y - x));
            }
        }
        on_lanes("fq8_arithmetic_matches_fq", check);
    }

    #[test]
    fn lane_formulas_match_g1_projective() {
        #[target_feature(enable = "avx512ifma")]
        fn check() {
            let mut rng = rng();
            let mut random = || -> [G1Affine; LANES] { from_fn(|_| G1Affine::random(&mut rng)) };
            let (p, q, r) = (random(), random(), random());
            let (p8, q8, r8) = (
                Aff8::from_points(p),
                Aff8::from_points(q),
                Aff8::from_points(r),
            );
            // An accumulator with Z ≠ 1: 2P + Q.
            let acc = p8.to_jacobian().double().add_affine(&q8);
            let expect: [G1Projective; LANES] =
                from_fn(|i| p[i].to_projective().double().add_affine(&q[i]));
            assert!(acc.to_projective() == expect);
            assert!(acc.double().to_projective() == expect.map(|a| a.double()));
            let sum: [G1Projective; LANES] = from_fn(|i| expect[i].add_affine(&r[i]));
            assert!(acc.add_affine(&r8).to_projective() == sum);
            // P + P and P + (−P) end with Z ≡ 0, and so does every step
            // after: the signal `batch_mul_shared` recomputes a lane on.
            for e in [
                p8.to_jacobian().add_affine(&p8),
                p8.to_jacobian().add_affine(&p8.neg()),
                acc.add_affine(&Aff8::from_points(expect.map(|a| a.to_affine()))),
            ] {
                for out in [e, e.double(), e.add_affine(&q8)] {
                    assert!(out.z.to_fq().iter().all(Fq::is_zero));
                }
            }
            for (j, entry) in odd_multiples(p8).iter().enumerate() {
                let m = Fr::from_u64(2 * j as u64 + 1);
                let (x, y) = (entry.x.to_fq(), entry.y.to_fq());
                for i in 0..LANES {
                    let expect = mul_reference(&p[i].to_projective(), &m).to_affine();
                    assert_eq!((x[i], y[i]), (expect.x, expect.y), "({})·P", 2 * j + 1);
                }
            }
        }
        on_lanes("lane_formulas_match_g1_projective", check);
    }

    #[test]
    fn shared_scalar_batch_mul_matches_the_portable_path() {
        if !lanes_here("shared_scalar_batch_mul_matches_the_portable_path") {
            return;
        }
        let mut rng = rng();
        let pool: Vec<G1Affine> = (0..106).map(|_| G1Affine::random(&mut rng)).collect();
        let ks = scalars();
        let check = |points: &[G1Affine], k: &Fr| {
            let expect = G1Affine::batch_mul_portable(points, &[*k]);
            let got = batch_mul_shared(points, k).expect("this CPU has IFMA");
            assert_eq!(got, expect, "{} lanes, k = {k:?}", points.len());
        };
        for n in (0..=17).chain([106]) {
            let mut points = pool[..n].to_vec();
            // Identity bases (a worker chooses `c1`) and a repeated point.
            for i in (2..n).step_by(5) {
                points[i] = G1Affine::identity();
            }
            if n > 3 {
                points[n - 1] = points[1];
            }
            for k in &ks {
                check(&points, k);
            }
        }
        // Bases the kernel does not take: all identities, and points
        // off the curve — `(0, 1)` has order 3 on `y² = x³ + 1`, so its
        // table meets the identity — between ordinary ones.
        let off_curve = [
            G1Affine {
                x: Fq::zero(),
                y: Fq::one(),
                infinity: false,
            },
            G1Affine {
                x: Fq::from_u64(5),
                y: Fq::from_u64(7),
                infinity: false,
            },
        ];
        let mut mixed = pool[..10].to_vec();
        mixed[3] = off_curve[0];
        mixed[8] = off_curve[1];
        for k in &ks {
            check(&[G1Affine::identity(); 9], k);
            check(&mixed, k);
        }
    }

    /// Points `P`, `Q`, `P + Q`, then 29 random ones, and bucket lists
    /// over them: first eight whose sums double,
    /// cancel, or pass through or end at the identity — longest first,
    /// one pass — then ordinary lists of 1 to 20 points.
    fn hostile_buckets() -> (Vec<G1Affine>, Vec<Vec<Entry>>) {
        let mut rng = rng();
        let (p, q) = (G1Affine::random(&mut rng), G1Affine::random(&mut rng));
        let mut points = vec![p, q, (p.to_projective() + q.to_projective()).to_affine()];
        points.extend((0..29).map(|_| G1Affine::random(&mut rng)));
        let (pos, neg) = (|i| Entry::new(i, false), |i| Entry::new(i, true));
        let (p, q, p_q) = (0, 1, 2);
        let mut jobs = vec![
            // (P + Q) − P = Q, then Q − Q, then the identity plus P.
            vec![pos(p_q), neg(p), neg(q), pos(p)],
            // P + P, then 2P + P.
            vec![pos(p), pos(p), pos(p)],
            // P − P, then the identity plus Q.
            vec![pos(p), neg(p), pos(q)],
            // P + Q, then (P + Q) − (P + Q).
            vec![pos(p), pos(q), neg(p_q)],
            // P + Q, then (P + Q) + (P + Q).
            vec![pos(p), pos(q), pos(p_q)],
            // −Q − P, then −(P + Q) + (P + Q).
            vec![neg(q), neg(p), pos(p_q)],
            vec![pos(p), pos(p)],
            vec![pos(p), neg(p)],
        ];
        for len in 1..=20usize {
            let point = |i| Entry::new(3 + (7 * len + i) % 29, i % 2 == 1);
            jobs.push((0..len).map(point).collect());
        }
        (points, jobs)
    }

    #[test]
    fn bucket_sums_match_the_portable_ones() {
        #[target_feature(enable = "avx512ifma")]
        fn check() {
            let (points, jobs) = hostile_buckets();
            let plan = BucketPlan::from_jobs(points, 4, &jobs);
            let expect = plan.bucket_sums();
            assert_eq!(msm_buckets(&plan).expect("this CPU has IFMA"), expect);
            // The first eight sums, by hand: P, 3P, Q, the identity,
            // 2(P + Q), the identity, 2P, the identity.
            let [p, q, p_q] = [0, 1, 2].map(|i| plan.points[i].to_projective());
            let id = G1Projective::identity();
            let by_hand = [p, p.double() + p, q, id, p_q.double(), id, p.double(), id];
            assert!(expect[..8] == by_hand);
            // Each of the eight ends at Z = 0 on the lanes, so each is
            // summed again by the portable formulas.
            let rows: Vec<Row> = plan.points.iter().map(lane_row).collect();
            let lists = from_fn(|i| &jobs[i][..]);
            let acc = bucket_chunk(&rows, lists);
            assert!(acc.z.to_fq().iter().all(Fq::is_zero));
        }
        on_lanes("bucket_sums_match_the_portable_ones", check);
    }

    /// A split no scalar has: `k1 = A`, `k2 = −B + 2¹⁰⁰`. `(A, −B)` is
    /// a vector of the GLV lattice, `A − B·λ ≡ 0`, so after the `k1`
    /// half the lane's sum runs through the `k2` half's digits of `−B`
    /// back to the identity: its last one adds a point to its negation,
    /// `Z = 0`. Window 20 of `k2` then adds `2¹⁰⁰·φ(P)`, so the digits
    /// stand for `2¹⁰⁰·λ`, the scalar returned beside them.
    fn exceptional_split() -> (Fr, SplitDigits) {
        let mut second = signed_digits(GLV_B).map(|d| -d);
        assert_eq!(second[13..], [0; 13], "B is below 2⁶⁴");
        second[20] = 1;
        let k = Fr::from_u64(2).pow(&[100]) * lambda();
        (k, [signed_digits(GLV_A), second])
    }

    /// The scalar a lane's split digits stand for.
    fn split_value(digits: &SplitDigits) -> Fr {
        let half = |half: &[i8; WINDOWS]| {
            half.iter().rev().fold(Fr::zero(), |acc, &d| {
                let magnitude = Fr::from_u64(u64::from(d.unsigned_abs()));
                acc * Fr::from_u64(32) + if d < 0 { -magnitude } else { magnitude }
            })
        };
        half(&digits[0]) + half(&digits[1]) * lambda()
    }

    /// 0, ±1, −32, r − 1 (`−1`), the GLV edges (`λ`, `λ ± 1`, an empty
    /// `k1`, an empty `k2`, both halves negative, the largest halves),
    /// `24·2²⁵⁰ − r` (whose unsplit width-5 digits wrap modulo `r`), a
    /// single digit in every window and equal digits in adjacent windows
    /// (`d·2^{5w}·(1 + 2⁵)`) — consecutive, so a pass of eight meets
    /// windows that are zero on some lanes or on all — then random ones.
    fn fixed_base_scalars() -> Vec<Fr> {
        let mut rng = rng();
        let max_half = Fr::from_u128((1 << 127) - 1);
        let mut ks = vec![
            Fr::zero(),
            Fr::one(),
            -Fr::one(),
            -Fr::from_u64(32),
            lambda(),
            lambda() + Fr::one(),
            lambda() - Fr::one(),
            Fr::from_u64(5) * lambda(),
            Fr::from_u64(12_345),
            -(Fr::from_u64(3) + Fr::from_u64(7) * lambda()),
            max_half * (Fr::one() + lambda()),
            Fr::from_u64(24) * Fr::from_u64(2).pow(&[250]),
        ];
        for d in [1u64, 15, 16, 17, 31] {
            let mut k = Fr::from_u64(d);
            for _ in 0..51 {
                ks.push(k);
                ks.push(k * Fr::from_u64(33));
                k *= Fr::from_u64(32);
            }
        }
        ks.extend((0..48).map(|_| Fr::random(&mut rng)));
        ks
    }

    /// `(0, 1)`: a point off the curve, of order 3 on `y² = x³ + 1`, so
    /// its table holds the identity, which the lanes cannot read.
    fn off_curve() -> G1Affine {
        G1Affine {
            x: Fq::zero(),
            y: Fq::one(),
            infinity: false,
        }
    }

    /// Asserts `fixed_base_mul(lanes)` ≡ per-lane `table.mul` ≡
    /// `mul_lockstep(lanes)`.
    fn check_fixed_base(lanes: &[(&FixedBaseTable, Fr)], what: &str) {
        let got = fixed_base_mul(lanes).expect("this CPU has IFMA");
        let per_lane: Vec<G1Projective> = lanes.iter().map(|(t, k)| t.mul(k)).collect();
        assert_eq!(got, per_lane, "{what}, {} lanes", lanes.len());
        assert_eq!(
            G1Projective::batch_to_affine(&got),
            FixedBaseTable::mul_lockstep(lanes),
            "{what}, {} lanes",
            lanes.len()
        );
    }

    #[test]
    fn fixed_base_mul_matches_table_mul_and_lockstep() {
        if !lanes_here("fixed_base_mul_matches_table_mul_and_lockstep") {
            return;
        }
        let key = FixedBaseTable::new(&G1Affine::random(&mut rng()));
        let identity = FixedBaseTable::new(&G1Affine::identity());
        let off_curve = FixedBaseTable::new(&off_curve());
        let tables = [generator_table(), &key, &identity, &off_curve];
        // Lane `i` of `n` takes `tables[layout(i, n)]`: each table alone,
        // `encrypt_batch`'s shape (the generator's first half, then the
        // key's), all four in turn, and runs of three.
        type Layout = fn(usize, usize) -> usize;
        let layouts: [(&str, Layout); 7] = [
            ("generator", |_, _| 0),
            ("key", |_, _| 1),
            ("identity", |_, _| 2),
            ("off-curve", |_, _| 3),
            ("generator then key", |i, n| usize::from(2 * i >= n)),
            ("all four in turn", |i, _| i % 4),
            ("runs of three", |i, _| i / 3 % 4),
        ];
        let ks = fixed_base_scalars();
        for (what, layout) in layouts {
            check_fixed_base(&[], what);
            for n in (1..=17).chain([106]) {
                for scalars in ks.chunks(n) {
                    let lanes: Vec<(&FixedBaseTable, Fr)> = scalars
                        .iter()
                        .enumerate()
                        .map(|(i, k)| (tables[layout(i, scalars.len())], *k))
                        .collect();
                    check_fixed_base(&lanes, what);
                }
            }
        }
        // Halves at `2¹²⁷ − 1`, beyond any scalar's split, through the
        // digits: `(2¹²⁷ − 1)(±1 ± λ)` on the generator's lanes and the
        // key's, in one pass.
        let max = signed_digits((1 << 127) - 1);
        let neg = max.map(|d| -d);
        let splits = [[max, max], [max, neg], [neg, max], [neg, neg]];
        let lanes: Vec<(&FixedBaseTable, Fr)> = splits
            .iter()
            .flat_map(|split| {
                [
                    (tables[0], split_value(split)),
                    (tables[1], split_value(split)),
                ]
            })
            .collect();
        let digits: Vec<SplitDigits> = splits.iter().flat_map(|&split| [split; 2]).collect();
        let got = fixed_base_mul_split(&lanes, &digits).expect("this CPU has IFMA");
        for ((table, k), got) in lanes.iter().zip(got) {
            assert_eq!(got, mul_reference(&table.entries()[0].to_projective(), k));
        }
    }

    /// Asserts `fixed_base_tables(bases)` ≡ `FixedBaseTable::new` per
    /// base, entry for entry.
    fn check_tables(bases: &[G1Affine], what: &str) {
        let got = fixed_base_tables(bases).expect("this CPU has IFMA");
        assert_eq!(got.len(), bases.len(), "{what}");
        for (i, (table, base)) in got.iter().zip(bases).enumerate() {
            let expect = FixedBaseTable::new(base);
            assert!(
                table.entries() == expect.entries(),
                "{what}: base {i} of {}",
                bases.len()
            );
        }
    }

    #[test]
    fn lanes_table_build_matches_the_portable_one() {
        if !lanes_here("lanes_table_build_matches_the_portable_one") {
            return;
        }
        let mut rng = rng();
        let keys: Vec<G1Affine> = (0..25).map(|_| G1Affine::random(&mut rng)).collect();
        let built = fixed_base_tables(&[G1Affine::generator()]).expect("this CPU has IFMA");
        assert!(
            built[0].entries() == generator_table().entries(),
            "the generator"
        );
        for n in [0, 1, 2, 7, 8, 9, 17, 25] {
            check_tables(&keys[..n], "random keys");
        }
        // One key on several lanes of a pass, and across passes.
        let (a, b) = (keys[0], keys[1]);
        check_tables(&[a, a], "one key twice");
        check_tables(
            &[a, b, a, a, G1Affine::generator(), b, a, b, a, b],
            "duplicates",
        );
        // Bases the lanes do not take get the portable build, beside
        // lanes that do, and in a pass of their own.
        let mut mixed = keys[..10].to_vec();
        mixed[2] = G1Affine::identity();
        mixed[7] = off_curve();
        mixed[9] = G1Affine::identity();
        check_tables(&mixed, "identity and off-curve among keys");
        check_tables(
            &[G1Affine::identity(), off_curve(), G1Affine::identity()],
            "no lane",
        );
    }

    #[test]
    fn an_exceptional_lane_ends_at_z_zero_and_is_recomputed() {
        #[target_feature(enable = "avx512ifma")]
        fn check() {
            let (k, split) = exceptional_split();
            assert_eq!(split_value(&split), k);
            assert_ne!(split, split_digits(&k), "no scalar splits this way");
            let digits = from_fn(|s| [split[s / WINDOWS][s % WINDOWS]; LANES]);
            // The generator's lanes (`φ` rows stored) and a key's (`φ`
            // rows lifted by `β`), alternating in one pass.
            let key = FixedBaseTable::new(&G1Affine::random(&mut rng()));
            let mut key_rows = LaneRows::of(&key);
            key_rows.touch(&key, &split);
            let sources = [LaneRows::Generator.rows(), key_rows.rows()];
            let rows = from_fn(|i| sources[i % 2].expect("both tables are on the curve"));
            let (acc, started) = fixed_base_chunk(rows, &digits);
            assert_eq!(started, 0xff);
            assert!(acc.z.to_fq().iter().all(Fq::is_zero));
            // Through the entry point: the split on a key lane and a
            // generator lane among generator, key, identity and off-curve
            // lanes, in one pass; every other lane takes its own split.
            let (identity, off_curve) = (
                FixedBaseTable::new(&G1Affine::identity()),
                FixedBaseTable::new(&off_curve()),
            );
            let lanes = [
                (generator_table(), Fr::one()),
                (&key, Fr::from_u64(5)),
                (&identity, k),
                (&key, k),
                (&off_curve, k),
                (generator_table(), k),
                (&key, -Fr::one()),
            ];
            let mut digits: Vec<SplitDigits> = lanes.iter().map(|(_, k)| split_digits(k)).collect();
            (digits[3], digits[5]) = (split, split);
            let got = fixed_base_mul_split(&lanes, &digits).expect("this CPU has IFMA");
            for (i, base) in [(3, key.entries()[0]), (5, G1Affine::generator())] {
                let expect = mul_reference(&base.to_projective(), &k);
                assert!(!expect.is_identity());
                assert_eq!(got[i], expect, "lane {i}");
            }
            let per_lane: Vec<G1Projective> = lanes.iter().map(|(t, k)| t.mul(k)).collect();
            assert_eq!(got, per_lane);
            check_fixed_base(&lanes, "an exceptional key lane's scalar");
        }
        on_lanes(
            "an_exceptional_lane_ends_at_z_zero_and_is_recomputed",
            check,
        );
    }
}
