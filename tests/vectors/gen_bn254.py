#!/usr/bin/env python3
"""BN-254 field vectors derived offline with plain Python integers.

Writes `crates/crypto/src/field_vectors.rs`: for the base field `Fq` and
the scalar field `Fr`, thirteen edge operands and 64 seeded random ones,
with `a*b mod p`, `a^2 mod p`, `pow(a, -1, p)` and the Montgomery
conversions `a*2^256 mod p` (in) and `a*2^-256 mod p` (out). The field
unit tests in `crates/crypto/src/field.rs` check the Rust arithmetic
against them. Nothing here shares code with the crate, so the two are
independent routes to the same numbers.

    python3 tests/vectors/gen_bn254.py          # rewrite the constants
    python3 tests/vectors/gen_bn254.py --check  # exit 1 if they differ

`cargo test` does not run this script; it reads the committed output.
"""

import pathlib
import random
import sys

FIELDS = [
    ("FQ", 21888242871839275222246405745257275088696311157297823662689037894645226208583),
    ("FR", 21888242871839275222246405745257275088548364400416034343698204186575808495617),
]
SEED = 0xB254
RANDOM_OPERANDS = 64
OUT = pathlib.Path(__file__).resolve().parents[2] / "crates" / "crypto" / "src" / "field_vectors.rs"

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


def limbs(x):
    assert 0 <= x < R
    return "[" + ", ".join("0x%016x" % ((x >> (64 * i)) & MASK) for i in range(4)) + "]"


def table(name, rows):
    out = ["    %s: &[" % name]
    out += ["        %s," % row for row in rows]
    out.append("    ],")
    return out


def field_block(name, p, rng):
    edges = edge_operands(p)
    operands = edges + [rng.randrange(p) for _ in range(RANDOM_OPERANDS)]
    pairs = [(i, j) for i in range(len(edges)) for j in range(len(edges))]
    pairs += [(i, i + 1) for i in range(len(edges), len(operands) - 1)]
    pairs.append((len(operands) - 1, len(edges)))
    inverse = lambda a: pow(a, -1, p) if a else 0
    lines = ["const %s: FieldVectors = FieldVectors {" % name]
    lines.append("    modulus: %s," % limbs(p))
    lines.append("    r: %s," % limbs(R % p))
    lines.append("    r2: %s," % limbs(R * R % p))
    lines.append("    inv: 0x%016x," % (-pow(p, -1, 1 << 64) & MASK))
    lines += table("operands", [limbs(a) for a in operands])
    lines += table("squares", [limbs(a * a % p) for a in operands])
    lines += table("inverses", [limbs(inverse(a)) for a in operands])
    lines += table("to_montgomery", [limbs(a * R % p) for a in operands])
    lines += table("from_montgomery", [limbs(a * pow(R, -1, p) % p) for a in operands])
    lines += table(
        "products",
        ["(%d, %d, %s)" % (i, j, limbs(operands[i] * operands[j] % p)) for i, j in pairs],
    )
    lines.append("};")
    return lines


def render():
    rng = random.Random(SEED)
    lines = [
        "// BN-254 field vectors derived with plain Python integers by",
        "// `tests/vectors/gen_bn254.py` (random operands from seed 0x%x)." % SEED,
        "// Generated: rerun the script instead of editing. Included by the",
        "// unit tests of `field.rs`.",
    ]
    for name, p in FIELDS:
        lines.append("")
        lines += field_block(name, p, rng)
    return "\n".join(lines) + "\n"


def main(argv):
    text = render()
    if argv[1:] == ["--check"]:
        if OUT.read_text() != text:
            sys.stderr.write("%s differs from the generator's output\n" % OUT)
            return 1
        return 0
    if argv[1:]:
        sys.stderr.write("usage: gen_bn254.py [--check]\n")
        return 2
    OUT.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
