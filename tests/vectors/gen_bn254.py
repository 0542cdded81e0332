#!/usr/bin/env python3
"""BN-254 field and G1 vectors derived offline with plain Python integers.

Writes four files under `crates/crypto/src/`, which `vectors.rs`
includes for the crate's unit tests:

* `field_vectors.rs`: for the base field `Fq` and the scalar field `Fr`,
  thirteen edge operands and 64 seeded random ones, with `a*b mod p`,
  `a^2 mod p`, `pow(a, -1, p)` and the Montgomery conversions
  `a*2^256 mod p` (in) and `a*2^-256 mod p` (out); the binary-GCD
  inversion's starting cofactor `2^512 * 2^561 mod p`; and inverse-only
  operands taken as Montgomery limbs `y`, with the limbs of their
  inverse, `2^512 * pow(y, -1, p) mod p`: `2^k` and `p - 2^k` for every
  `k < 254`, one-limb and top-limb-only values, and values with long
  zero runs -- the inputs that hold a GCD round's packed coefficient at
  its `2^31` edge or take the most steps.
* `g1_vectors.rs`: `k*P` by textbook affine double-and-add for the bases
  `g`, `7*g` and two seeded points, under the edge scalars 0, 1, 2, r-1,
  r-2, lambda, lambda+-1, 2^127+-1, 2^128 and the GLV basis values A, B
  and C on every base, then 32 seeded (base, scalar) pairs. The curve
  arithmetic is anchored on the EIP-196 `ecAdd`/`ecMul` vectors the G1
  tests also check, and the GLV constants on their defining relations.
* `elgamal_vectors.rs`: exponential-ElGamal ciphertexts
  `(rho*g, rho*h + m*g)` under a seeded key `h = k*g`, for answer vectors
  of 1, 4, 9 and 17 components (seeded options `m` and randomness
  `rho`; the 17-vector opens with `rho = 0, m = 0`, both points the
  identity, and `rho = r - 1`).
* `table_vectors.rs`: fixed-base table entries `d*2^(5w)*B` at
  (w, d) = (0, 1), (0, 16), (12, 7) and (25, 16) of two seeded bases,
  each with its endomorphism image `(beta*x, y)`, which is also checked
  to be `lambda*d*2^(5w)*B`.
* `msm_vectors.rs`: multi-scalar multiplications `sum(s_i*P_i)`,
  computed as `sum((sum of the s_i on P) * P)` over the distinct bases,
  for seeded sets of n = 1, 15, 16, 49, 97, 193 and 2100 terms on a
  pool of bases (the identity, g, -g, seeded points and the negation of
  the first). Every set past the first opens with planted terms: a
  repeated (base, scalar) pair, an identity base, a zero scalar, a
  `P`/`-P` pair under one scalar and another under two, then the scalars
  r - 1, r - 2, lambda, lambda+-1, 2^127+-1, 2^128 and the GLV basis
  values on seeded bases.

Nothing here shares code with the crate, so the two are independent
routes to the same numbers.

    python3 tests/vectors/gen_bn254.py          # rewrite the constants
    python3 tests/vectors/gen_bn254.py --check  # exit 1 if any differs

`cargo test` does not run this script; it reads the committed output.
"""

import pathlib
import random
import sys

Q = 21888242871839275222246405745257275088696311157297823662689037894645226208583
ORDER = 21888242871839275222246405745257275088548364400416034343698204186575808495617
FIELDS = [("FQ", Q), ("FR", ORDER)]
SEED = 0xB254
RANDOM_OPERANDS = 64
INVERSE_SEED = 0x1B254
G1_SEED = 0x61B254
RANDOM_PAIRS = 32
ELGAMAL_SEED = 0xE16B254
ELGAMAL_LENGTHS = [1, 4, 9, 17]
ELGAMAL_OPTIONS = 4
TABLE_SEED = 0x7AB254
TABLE_ENTRIES = [(0, 1), (0, 16), (12, 7), (25, 16)]
MSM_SEED = 0x35B254
MSM_SIZES = [1, 15, 16, 49, 97, 193, 2100]
MSM_POOL = 24
SRC = pathlib.Path(__file__).resolve().parents[2] / "crates" / "crypto" / "src"

R = 1 << 256
MASK = (1 << 64) - 1


def edge_operands(p):
    return [
        0,
        1,
        2,
        p - 1,
        p - 2,
        (p - 1) // 2,
        (p + 1) // 2,
        (1 << 64) - 1,
        1 << 128,
        (1 << 255) % p,
        R % p,
        pow(R, -1, p),
        (R - 1) % p,
    ]


def inverse_only_operands(p, rng):
    powers = [1 << k for k in range(254)]
    one_limb = [3, (1 << 31) - 1, 1 << 31 | 1, (1 << 63) + 1, MASK - 2, MASK]
    one_limb += [rng.getrandbits(64) | 1 for _ in range(4)]
    top_limb = [t << 192 for t in [3, (p >> 192) - 1, p >> 192]]
    top_limb += [rng.randrange(1, p >> 192) << 192 for _ in range(4)]
    zero_runs = [(1 << 253) + 1, (1 << 253) - 1, (1 << 200) + (1 << 31) - 1, p - (1 << 253) - 1]
    zero_runs += [rng.randrange(p) & ~(((1 << 160) - 1) << 48) for _ in range(4)]
    operands = powers + [p - x for x in powers] + one_limb + top_limb + zero_runs
    assert all(0 < x < p for x in operands)
    return operands


def limbs(x):
    assert 0 <= x < R
    return "[" + ", ".join("0x%016x" % ((x >> (64 * i)) & MASK) for i in range(4)) + "]"


def table(name, rows):
    out = ["    %s: &[" % name]
    out += ["        %s," % row for row in rows]
    out.append("    ],")
    return out


def field_block(name, p, rng, inverse_rng):
    edges = edge_operands(p)
    operands = edges + [rng.randrange(p) for _ in range(RANDOM_OPERANDS)]
    pairs = [(i, j) for i in range(len(edges)) for j in range(len(edges))]
    pairs += [(i, i + 1) for i in range(len(edges), len(operands) - 1)]
    pairs.append((len(operands) - 1, len(edges)))
    inverse = lambda a: pow(a, -1, p) if a else 0
    lines = ["pub(crate) const %s: FieldVectors = FieldVectors {" % name]
    lines.append("    modulus: %s," % limbs(p))
    lines.append("    r: %s," % limbs(R % p))
    lines.append("    r2: %s," % limbs(R * R % p))
    lines.append("    inv: 0x%016x," % (-pow(p, -1, 1 << 64) & MASK))
    lines.append("    gcd_scale: %s," % limbs((1 << 1073) % p))
    lines += table("operands", [limbs(a) for a in operands])
    lines += table("squares", [limbs(a * a % p) for a in operands])
    lines += table("inverses", [limbs(inverse(a)) for a in operands])
    lines += table("to_montgomery", [limbs(a * R % p) for a in operands])
    lines += table("from_montgomery", [limbs(a * pow(R, -1, p) % p) for a in operands])
    lines += table(
        "products",
        ["(%d, %d, %s)" % (i, j, limbs(operands[i] * operands[j] % p)) for i, j in pairs],
    )
    lines += table(
        "inverse_only",
        [
            "(%s, %s)" % (limbs(y), limbs(R * R * pow(y, -1, p) % p))
            for y in inverse_only_operands(p, inverse_rng)
        ],
    )
    lines.append("};")
    return lines


def render_fields():
    rng = random.Random(SEED)
    inverse_rng = random.Random(INVERSE_SEED)
    lines = [
        "// BN-254 field vectors derived with plain Python integers by",
        "// `tests/vectors/gen_bn254.py` (random operands from seeds 0x%x"
        % SEED,
        "// and 0x%x)." % INVERSE_SEED,
        "// Generated: rerun the script instead of editing. Included by",
        "// `vectors.rs` for the unit tests.",
    ]
    for name, p in FIELDS:
        lines.append("")
        lines += field_block(name, p, rng, inverse_rng)
    return "\n".join(lines) + "\n"


# --- G1: y^2 = x^3 + 3 over F_q, affine points as (x, y), None = identity.


def g1_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    (x1, y1), (x2, y2) = a, b
    if x1 == x2:
        if (y1 + y2) % Q == 0:
            return None
        slope = 3 * x1 * x1 * pow(2 * y1, -1, Q) % Q
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, Q) % Q
    x3 = (slope * slope - x1 - x2) % Q
    return (x3, (slope * (x1 - x3) - y1) % Q)


def g1_mul(k, point):
    """Double-and-add, most significant bit first."""
    acc = None
    for bit in bin(k)[2:] if k else "":
        acc = g1_add(acc, acc)
        if bit == "1":
            acc = g1_add(acc, point)
    return acc


def on_curve(point):
    x, y = point
    return (y * y - x * x * x - 3) % Q == 0


def xy(point):
    """A point other than the identity as Rust `Xy` limbs."""
    return "(%s, %s)" % (limbs(point[0]), limbs(point[1]))


def optional_xy(point):
    """A point as Rust `Option<Xy>` limbs, the identity as `None`."""
    return "None" if point is None else "Some((%s, %s))" % (limbs(point[0]), limbs(point[1]))


def hexpoint(x, y):
    return (int(x, 16), int(y, 16))


G = (1, 2)
LAMBDA = 0x30644E72E131A029048B6E193FD84104CC37A73FEC2BC5E9B8CA0B2D36636F23
BETA = 0x30644E72E131A0295E6DD9E7E0ACCCB0C28F069FBB966E3DE4BD44E5607CFD48
GLV_A = 0x6F4D8248EEB859FC8211BBEB7D4F1128
GLV_B = 0x89D3256894D213E3
GLV_C = 0x6F4D8248EEB859FD0BE4E1541221250B


def check_anchors():
    """The EIP-196 vectors in `g1.rs`, and the GLV constants' relations."""
    g2 = hexpoint(
        "030644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd3",
        "15ed738c0e0a7c92e7845f96b2ae9c0a68a6a449e3538fc7ff3ebf7a5a18a2c4",
    )
    g3 = hexpoint(
        "0769bf9ac56bea3ff40232bcb1b6bd159315d84715b8e679f2d355961915abf0",
        "2ab799bee0489429554fdb7c8d086475319e63b40b9c5b57cdf1ff3dd9fe2261",
    )
    assert g1_add(G, G) == g2 and g1_add(G, g2) == g3 and g1_mul(3, G) == g3
    p = hexpoint(
        "2bd3e6d0f3b142924f5ca7b49ce5b9d54c4703d7ae5648e61d02268b1a0a9fb7",
        "21611ce0a6af85915e2f1d70300909ce2e49dfad4a4619c8390cae66cefdb204",
    )
    kp = hexpoint(
        "070a8d6a982153cae4be29d434e8faef8a47b274a053f5a4ee2a6c9c13c31e5c",
        "031b8ce914eba3a9ffb989f9cdd5b0f01943074bf4f0f315690ec3cec6981afc",
    )
    assert g1_mul(0x11138CE750FA15C2, p) == kp
    kkp = hexpoint(
        "025a6f4181d2b4ea8b724290ffb40156eb0adb514c688556eb79cdea0752c2bb",
        "2eff3f31dea215f1eb86023a133a996eb6300b44da664d64251d05381bb8a02e",
    )
    assert g1_mul((Q - 1) % ORDER, kp) == kkp
    max_g = hexpoint(
        "2f588cffe99db877a4434b598ab28f81e0522910ea52b45f0adaa772b2d5d352",
        "12f42fa8fd34fb1b33d8c6a718b6590198389b26fc9d8808d971f8b009777a97",
    )
    assert g1_mul(((1 << 256) - 1) % ORDER, G) == max_g
    assert g1_mul(ORDER - 1, G) == (1, Q - 2) and g1_add(g1_mul(ORDER - 1, G), G) is None
    assert pow(LAMBDA, 3, ORDER) == 1 != LAMBDA and pow(BETA, 3, Q) == 1 != BETA
    assert g1_mul(LAMBDA, G) == (BETA * G[0] % Q, G[1])
    assert GLV_A * GLV_C + GLV_B * GLV_B == ORDER
    assert (GLV_A - GLV_B * LAMBDA) % ORDER == 0 and (GLV_B + GLV_C * LAMBDA) % ORDER == 0


def seeded_point(rng):
    """A point from a random x: the curve equation, then a square root
    (`q = 3 mod 4`), with no multiple of `g` involved."""
    while True:
        x = rng.randrange(Q)
        rhs = (x * x * x + 3) % Q
        y = pow(rhs, (Q + 1) // 4, Q)
        if y * y % Q == rhs:
            return (x, y if rng.randrange(2) else Q - y)


def render_g1():
    check_anchors()
    rng = random.Random(G1_SEED)
    bases = [G, g1_mul(7, G), seeded_point(rng), seeded_point(rng)]
    assert all(on_curve(b) for b in bases)
    edges = [
        0,
        1,
        2,
        ORDER - 1,
        ORDER - 2,
        LAMBDA,
        LAMBDA + 1,
        LAMBDA - 1,
        (1 << 127) - 1,
        (1 << 127) + 1,
        1 << 128,
        GLV_A,
        GLV_B,
        GLV_C,
    ]
    pairs = [(b, k) for b in range(len(bases)) for k in edges]
    pairs += [(rng.randrange(len(bases)), rng.randrange(ORDER)) for _ in range(RANDOM_PAIRS)]

    def product(b, k):
        point = g1_mul(k, bases[b])
        assert point is None or on_curve(point)
        return optional_xy(point)

    lines = [
        "// BN-254 G1 vectors derived with plain Python integers by",
        "// `tests/vectors/gen_bn254.py` (seeded points and pairs from seed",
        "// 0x%x): textbook affine double-and-add. Generated: rerun the" % G1_SEED,
        "// script instead of editing. Included by `vectors.rs` for the unit",
        "// tests.",
        "",
        "pub(crate) const G1: G1Vectors = G1Vectors {",
    ]
    lines += table("bases", ["(%s, %s)" % (limbs(x), limbs(y)) for x, y in bases])
    lines += table("edge_scalars", [limbs(k) for k in edges])
    lines += table("products", ["(%d, %s, %s)" % (b, limbs(k), product(b, k)) for b, k in pairs])
    lines.append("};")
    return "\n".join(lines) + "\n"


def render_elgamal():
    rng = random.Random(ELGAMAL_SEED)
    secret = rng.randrange(1, ORDER)
    key = g1_mul(secret, G)
    lines = [
        "// Exponential-ElGamal vectors derived with plain Python integers by",
        "// `tests/vectors/gen_bn254.py` (key, options and randomness from",
        "// seed 0x%x): `(rho*g, rho*h + m*g)` by textbook affine" % ELGAMAL_SEED,
        "// double-and-add. Generated: rerun the script instead of editing.",
        "// Included by `vectors.rs` for the unit tests.",
        "",
        "pub(crate) const ELGAMAL: ElGamalVectors = ElGamalVectors {",
        "    secret: %s," % limbs(secret),
        "    key: (%s, %s)," % (limbs(key[0]), limbs(key[1])),
        "    vectors: &[",
    ]
    for n in ELGAMAL_LENGTHS:
        components = [(rng.randrange(ELGAMAL_OPTIONS), rng.randrange(ORDER)) for _ in range(n)]
        if n == max(ELGAMAL_LENGTHS):
            components[:2] = [(0, 0), (components[1][0], ORDER - 1)]
        lines.append("        &[")
        for m, rho in components:
            c1 = g1_mul(rho, G)
            c2 = g1_add(g1_mul(rho, key), g1_mul(m, G))
            assert all(c is None or on_curve(c) for c in (c1, c2))
            lines.append("            (%d, %s, %s, %s)," % (m, limbs(rho), optional_xy(c1), optional_xy(c2)))
        lines.append("        ],")
    lines += ["    ],", "};"]
    return "\n".join(lines) + "\n"


def render_tables():
    rng = random.Random(TABLE_SEED)
    bases = [seeded_point(rng) for _ in range(2)]
    rows = []
    for b, base in enumerate(bases):
        for w, d in TABLE_ENTRIES:
            multiple = d << (5 * w)
            entry = g1_mul(multiple, base)
            image = (BETA * entry[0] % Q, entry[1])
            assert on_curve(entry) and image == g1_mul(LAMBDA * multiple % ORDER, base)
            rows.append("(%d, %d, %d, %s, %s)" % (b, w, d, xy(entry), xy(image)))
    lines = [
        "// Fixed-base table entries derived with plain Python integers by",
        "// `tests/vectors/gen_bn254.py` (bases from seed 0x%x): `d*2^(5w)*B`" % TABLE_SEED,
        "// by textbook affine double-and-add, and its image `(beta*x, y)`.",
        "// Generated: rerun the script instead of editing. Included by",
        "// `vectors.rs` for the unit tests.",
        "",
        "pub(crate) const TABLES: TableVectors = TableVectors {",
    ]
    lines += table("bases", [xy(b) for b in bases])
    lines += table("entries", rows)
    lines.append("};")
    return "\n".join(lines) + "\n"


def g1_neg(point):
    return None if point is None else (point[0], (Q - point[1]) % Q)


def render_msm():
    rng = random.Random(MSM_SEED)
    seeded = [seeded_point(rng) for _ in range(MSM_POOL)]
    bases = [None, G, g1_neg(G)] + seeded + [g1_neg(seeded[0])]
    assert all(b is None or on_curve(b) for b in bases)
    edges = [
        ORDER - 1,
        ORDER - 2,
        LAMBDA,
        LAMBDA + 1,
        LAMBDA - 1,
        (1 << 127) - 1,
        (1 << 127) + 1,
        1 << 128,
        GLV_A,
        GLV_B,
        GLV_C,
    ]
    seeded_base = lambda: rng.randrange(3, len(bases))
    lines = [
        "// BN-254 multi-scalar multiplications derived with plain Python",
        "// integers by `tests/vectors/gen_bn254.py` (seeded points and terms",
        "// from seed 0x%x): per base, the sum of its scalars times the base" % MSM_SEED,
        "// by textbook affine double-and-add, and those products summed.",
        "// Generated: rerun the script instead of editing.",
        "// Included by `vectors.rs` for the unit tests.",
        "",
        "pub(crate) const MSM: MsmVectors = MsmVectors {",
    ]
    lines += table("bases", [optional_xy(b) for b in bases])
    lines.append("    sets: &[")
    for n in MSM_SIZES:
        terms = []
        if n > 1:
            repeated, pair = (seeded_base(), rng.randrange(ORDER)), rng.randrange(ORDER)
            terms += [repeated, repeated]
            terms += [(0, rng.randrange(ORDER)), (seeded_base(), 0)]
            terms += [(1, pair), (2, pair)]
            terms += [(3, rng.randrange(ORDER)), (len(bases) - 1, rng.randrange(ORDER))]
            terms += [(seeded_base(), k) for k in edges]
            terms = terms[:n]
        terms += [(rng.randrange(len(bases)), rng.randrange(ORDER)) for _ in range(n - len(terms))]
        # Terms on one base share its product: sum((sum of their s) * P).
        per_base = {}
        for b, k in terms:
            per_base[b] = (per_base.get(b, 0) + k) % ORDER
        total = None
        for b, k in sorted(per_base.items()):
            total = g1_add(total, g1_mul(k, bases[b]))
        assert total is None or on_curve(total)
        lines.append("        (")
        lines.append("            &[")
        lines += ["                (%d, %s)," % (b, limbs(k)) for b, k in terms]
        lines.append("            ],")
        lines.append("            %s," % optional_xy(total))
        lines.append("        ),")
    lines += ["    ],", "};"]
    return "\n".join(lines) + "\n"


OUTPUTS = [
    ("field_vectors.rs", render_fields),
    ("g1_vectors.rs", render_g1),
    ("elgamal_vectors.rs", render_elgamal),
    ("table_vectors.rs", render_tables),
    ("msm_vectors.rs", render_msm),
]


def main(argv):
    if argv[1:] not in ([], ["--check"]):
        sys.stderr.write("usage: gen_bn254.py [--check]\n")
        return 2
    status = 0
    for name, render in OUTPUTS:
        path, text = SRC / name, render()
        if argv[1:] == ["--check"]:
            if not path.exists() or path.read_text() != text:
                sys.stderr.write("%s differs from the generator's output\n" % path)
                status = 1
        else:
            path.write_text(text)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
