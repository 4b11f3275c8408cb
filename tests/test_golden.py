"""Byte-for-byte reports and exit codes of the paper's pipelines.

Each ``tests/data/golden/<name>.out`` holds ``exit <code>`` on its first
line and the report after it, recorded from the CLI on the inputs below.
A refactor that changes a single byte of a report fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from ratsos.cli import run

DATA = Path(__file__).parent / "data" / "golden"


def _data(name: str) -> str:
    return str(DATA / name)


CASES = {
    "boundary-demo": ["boundary", "demo"],
    "boundary-construct": [
        "boundary", "construct", "--points", _data("demo_points.txt"), "--tuple", "1,1,1,1,4,4,4,4,-2",
    ],
    "boundary-certify": [
        "boundary", "certify", "--form", _data("demo_sextic.txt"), "--functional", _data("demo_functional.txt"),
    ],
    "boundary-certify-witness": [
        "boundary", "certify", "--form", _data("demo_sextic.txt"), "--functional", _data("demo_functional.txt"),
        "--witness", _data("demo_witness.txt"),
    ],
    **{
        f"groups-table-{d}{suffix}": ["groups", "table", "--catalog", f"degree{d}.cat", *flags]
        for d in (4, 6, 8)
        for suffix, flags in (("", []), ("-json", ["--json"]))
    },
    **{
        f"field-normform-{n}": ["field", "normform", f"--minpoly={m}", f"--linform={lin}"]
        for n, m, lin in (
            (4, "t^4-2*t^3+3*t^2+t+2", "1-2*t+t^2+3*t^3; 2+t-3*t^2-t^3"),
            (5, "t^5+t^4-2*t^3+3*t^2-t+1", "3+t-2*t^2+t^3-t^4; -1+2*t+t^2-3*t^3+2*t^4"),
            (6, "t^6+2*t^5-t^4+3*t^3-2*t^2+t+3", "1+t+2*t^2-t^3+3*t^4-2*t^5; -2+3*t-t^2+t^3+t^4+2*t^5"),
            (7, "t^7-t^6+2*t^5+3*t^4-t^3+2*t^2-3*t+1",
             "2-t+t^2+3*t^3-2*t^4+t^5-t^6; 1+3*t-2*t^2-t^3+t^4+2*t^5+3*t^6"),
            (8, "t^8+t^7-2*t^6+t^5+3*t^4-t^3+2*t^2+t+1",
             "1-t+2*t^2+t^3-3*t^4+2*t^5+t^6-t^7; 3+2*t-t^2+t^3+2*t^4-t^5-2*t^6+t^7"),
        )
    },
    "field-normform-canonical-4": ["field", "normform", "--minpoly=t^4+t+1"],
    "field-normform-canonical-6": ["field", "normform", "--minpoly=t^6+t+1"],
    # a coefficient of t-degree >= n is reduced modulo the minimal polynomial
    "field-normform-high-degree": ["field", "normform", "--minpoly=t^4+t+1", "--linform=t^5-2*t; 3+t^4"],
    "field-galois-quartic": ["field", "galois", "--minpoly=t^4+t+1"],
    "field-obstruct-quartic": ["field", "obstruct", "--minpoly=t^4+t+1"],
    # Q(zeta_7) with its regular C6 action: c = 1, no obstruction
    "field-obstruct-c6": [
        "field", "obstruct", "--minpoly=t^6+t^5+t^4+t^3+t^2+t+1", "--galois-gens=(1 3 6 2 4 5)",
    ],
    "field-obstruct-linform": ["field", "obstruct", "--minpoly=t^4+t+1", "--linform=1;t;t^3"],
    # a repeated root, real roots of a quartic and of a sextic: the Sturm chain decides
    "field-galois-repeated": ["field", "galois", "--minpoly=t^4+2*t^2+1"],
    "field-obstruct-repeated": ["field", "obstruct", "--minpoly=t^4+2*t^2+1"],
    "field-obstruct-real-roots": ["field", "obstruct", "--minpoly=t^4-t-1"],
    "field-obstruct-s6": ["field", "obstruct", "--minpoly=t^6-t-1", "--galois-gens=(1 2 3 4 5 6),(1 2)"],
    # D4 and C4 identify the root pairing of the resolvent root
    "field-galois-d4": ["field", "galois", "--minpoly=t^4+2"],
    "field-galois-c4": ["field", "galois", "--minpoly=t^4+t^3+t^2+t+1"],
    # 10x10 lines with s* = 5/3 and with an irrational s*; "differ" holds two
    # Gram points of (x1^2 + x2^2)^2 whose spans have dimensions 1 and 2
    **{
        f"gram-shrink-{kind}": [
            "gram", "shrink", "--g1", _data(f"shrink-{kind}-g1.txt"), "--g2", _data(f"shrink-{kind}-g2.txt"),
        ]
        for kind in ("rational", "generic", "differ")
    },
    "gram-verify-readme": ["gram", "verify", "--form", "x1^4+x2^4", "--squares", "x1^2;x2^2"],
    # the squares expand to another form: exit 1
    "gram-verify-mismatch": ["gram", "verify", "--form", "x1^4+x2^4", "--squares", "x1^2;x1*x2"],
    "gram-extract-q-demo": ["gram", "extract-q", "--form", "2*x1^4 + 3*x2^4", "--basis", "x1^2;x2^2"],
    # x1^3*x2 is not in the span of x1^4, x1^2*x2^2, x2^4: exit 1
    "gram-extract-q-no-solution": ["gram", "extract-q", "--form", "x1^3*x2", "--basis", "x1^2;x2^2"],
    # (x1*x2)^2 = x1^2 * x2^2: the products are dependent, exit 2
    "gram-extract-q-dependent": ["gram", "extract-q", "--form", "x1^3*x2", "--basis", "x1^2;x1*x2;x2^2"],
    "groups-classify-d4": ["groups", "classify", "--gens", "(1 2 3 4),(1 3)"],
    "groups-classify-s6": ["groups", "classify", "--gens", "(1 2 3 4 5 6),(1 2)"],
    "groups-char-number-d4": ["groups", "char-number", "--gens", "(1 2 3 4),(1 3)", "--inv", "(1 2)(3 4)"],
    "groups-char-number-s6": [
        "groups", "char-number", "--gens", "(1 2 3 4 5 6),(1 2)", "--inv", "(1 2)(3 4)(5 6)", "--degree", "6",
    ],
    # c is defined only for a transitive group: each of these exits 2 and names transitivity
    "groups-char-number-intransitive": [
        "groups", "char-number", "--gens", "(1 2)(3 4)", "--inv", "(1 2)(3 4)",
    ],
    "field-obstruct-intransitive": [
        "field", "obstruct", "--minpoly=t^6+t+1", "--galois-gens=(1 2)(3 4)(5 6),(1 3)",
    ],
    "field-obstruct-intransitive-tau": [
        "field", "obstruct", "--minpoly=t^6+t+1", "--galois-gens=(1 2)(3 4)(5 6)",
    ],
    # one report per remaining exit of the obstruction pipeline
    "field-obstruct-odd-degree": ["field", "obstruct", "--minpoly=t^5+t+1"],
    "field-obstruct-reducible": ["field", "obstruct", "--minpoly=t^4+4"],
    "field-obstruct-supplied-refuted": [
        "field", "obstruct", "--minpoly=t^4+2", "--galois-gens=(1 2 3 4),(1 2)",
    ],
    "field-obstruct-tau-not-in-group": [
        "field", "obstruct", "--minpoly=t^6+t+1", "--galois-gens=(1 2 3 4 5 6)",
    ],
    "field-obstruct-inconclusive": ["field", "obstruct", "--minpoly=t^4+t+1", "--linform=1;0;0"],
    "field-obstruct-d4": ["field", "obstruct", "--minpoly=t^4+2"],
    "field-galois-a4": ["field", "galois", "--minpoly=t^4+8*t+12"],
    "field-galois-v4": ["field", "galois", "--minpoly=t^4+1"],
    # verdicts about well-formed inputs: the tuple fails its relation, the
    # form is interior, the two points are equal (each exit 1), and the
    # involution fixes points (exit 3)
    "boundary-construct-rejected": [
        "boundary", "construct", "--points", _data("demo_points.txt"), "--tuple", "1,1,1,1,4,4,4,4,-3",
    ],
    "boundary-certify-interior": [
        "boundary", "certify", "--form", "x1^6 + x2^6 + x3^6", "--functional", _data("demo_functional.txt"),
    ],
    "gram-shrink-equal": [
        "gram", "shrink", "--g1", _data("shrink-rational-g1.txt"), "--g2", _data("shrink-rational-g1.txt"),
    ],
    "groups-char-number-fixed-point": [
        "groups", "char-number", "--gens", "(1 2 3 4 5 6)", "--inv", "(1 2)", "--degree", "6",
    ],
    # two roots 10^-20 from a double root: isolation doubles its precision to 256 bits
    "field-obstruct-precision-doubling": [
        "field", "obstruct",
        "--minpoly=t^4 + 2*t^2 + 10000000000000000000000000000000000000001/10000000000000000000000000000000000000000",
    ],
    # two reducible quartics without a rational root: a product of two
    # quadratics found with q != 0 and with q = 0 in the depressed quartic
    "field-obstruct-quadratic-factors": ["field", "obstruct", "--minpoly=t^4+t^3+3*t^2+2*t+2"],
    "field-obstruct-quadratic-factors-even": ["field", "obstruct", "--minpoly=t^4+5*t^2+4"],
    # -alpha has a negative definite moment matrix: exit 1
    "boundary-certify-negated": [
        "boundary", "certify", "--form", _data("demo_sextic.txt"), "--functional", _data("demo_functional_negated.txt"),
    ],
    # variable indices up to 8 on a basis of two monomials
    "gram-extract-q-x8": ["gram", "extract-q", "--form", "x8^6+x1^6", "--basis", "x8^3;x1^3"],
}


def render(argv) -> str:
    result = run(argv)
    return f"exit {result.exit_code}\n{result.report}\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name):
    assert render(CASES[name]) == (DATA / f"{name}.out").read_text()


# both shrink lines, and one report per command family
OPTIMIZED_CASES = [
    "gram-shrink-generic", "gram-shrink-rational",
    "boundary-certify", "field-obstruct-quartic", "groups-char-number-s6",
]


@pytest.mark.parametrize("name", OPTIMIZED_CASES)
def test_report_is_byte_identical_under_python_O(name):
    # python -O strips assert statements and __debug__ blocks; no check may go with them
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "ratsos", *CASES[name]], capture_output=True, text=True, timeout=120
    )
    assert proc.stderr == ""
    assert f"exit {proc.returncode}\n{proc.stdout}" == (DATA / f"{name}.out").read_text()
