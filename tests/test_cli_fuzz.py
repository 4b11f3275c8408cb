"""Malformed command lines exit with a code from 0 to 3 and never raise.

Each example draws one subcommand with arguments built from a small
grammar of good and bad pieces: rationals, polynomial terms in ``t`` and
``x1..x3``, permutation cycles, Gram and functional files, point and weight
lists, and ``--linform`` lists.  Degrees stay at most 6, so no example
reaches a slow path; the deadline guards that.  ``gram extract-q`` works on
the monomials its products use and draws variables up to ``x40``; the other
commands stay at most ``x4``, as ``gram verify`` prints a dense Gram point.
Literal ``--form``, ``--basis`` and ``--catalog`` values are also drawn
longer than a file name may be (255 bytes).
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ratsos.cli import EXIT_INPUT, run

GOLDEN = Path(__file__).parent / "data" / "golden"

RATIONALS = st.one_of(
    st.integers(-4, 4).map(str),
    st.sampled_from(["3/4", "-5/6", "0/5", "1/0", "a", "", "2/", "/3", "1.5", "--1", "7/-2", " 8 "]),
)


def _joined(terms, seps=("+", "-", " + ", "*", "+-")):
    return st.lists(terms, min_size=1, max_size=4).flatmap(
        lambda ts: st.lists(st.sampled_from(seps), min_size=len(ts) - 1, max_size=len(ts) - 1).map(
            lambda ops: "".join(t + op for t, op in zip(ts, ops)) + ts[-1]
        )
    )


T_TERMS = st.one_of(
    st.builds(lambda c, e: f"{c}*t^{e}", st.integers(-5, 5), st.integers(0, 6)),
    st.sampled_from(["t", "1", "1/2", "t^", "^2", "t^-1", "1/0*t", "2*3", "tt", "t*", "x1", "(t)", "t2", ""]),
)
T_POLYS = st.one_of(
    _joined(T_TERMS),
    # monic, so the field pipelines run past their input checks
    st.lists(st.integers(-3, 3), min_size=2, max_size=6).map(
        lambda cs: "+".join([f"t^{len(cs)}"] + [f"{c}*t^{k}" for k, c in enumerate(cs)])
    ),
)

def _forms(variables, degree):
    """Forms of one degree, so the Gram pipelines run past their input checks."""
    monomials = st.lists(variables, min_size=degree, max_size=degree).map("*".join)
    return st.lists(st.builds(lambda c, m: f"{c}*{m}", st.integers(1, 5), monomials), min_size=1, max_size=4).map(
        "+".join
    )


def _x_polys(variables):
    """Polynomial texts in ``variables``: joined good and bad terms, or forms of one degree."""
    monomials = st.lists(variables, min_size=1, max_size=6).map("*".join)
    terms = st.one_of(
        st.builds(lambda c, m: f"{c}*{m}", st.integers(1, 5), monomials),
        monomials,
        st.sampled_from(["x0", "x", "x1^", "^2", "1/0", "2*", "*x1", "t", "x1^-1", "(x1)", "x4^2", "x1^7", ""]),
    )
    return st.one_of(_joined(terms), st.integers(1, 3).flatmap(lambda d: _forms(variables, d)))


X_VARIABLES = st.sampled_from(["x1", "x2", "x3"])
X_POLYS = _x_polys(X_VARIABLES)
X_LISTS = st.lists(X_POLYS, max_size=3).map(";".join)
WIDE_VARIABLES = st.one_of(X_VARIABLES, st.integers(4, 40).map("x{}".format))
WIDE_POLYS = _x_polys(WIDE_VARIABLES)
WIDE_LISTS = st.lists(WIDE_POLYS, max_size=3).map(";".join)


def _long(texts):
    """``texts`` padded past 255 bytes with spaces, which the polynomial grammar ignores."""
    return st.builds(lambda text, pad: text + " " * pad, texts, st.integers(256, 400))

CYCLES = st.lists(
    st.one_of(
        st.lists(st.integers(-1, 7).map(str), max_size=4).map(lambda pts: "(" + " ".join(pts) + ")"),
        st.sampled_from(["(1 2", "1 2)", "((1 2)", "(a b)", "", "(1,2)", "(1 2)(3 4)"]),
    ),
    max_size=3,
).map(",".join)

LINFORMS = st.lists(st.one_of(T_POLYS, st.just("")), max_size=5).map(";".join)
DEGREES = st.sampled_from(["0", "-1", "2", "4", "6", "x"])


def _rows(entries, max_rows=5):
    return st.lists(st.lists(entries, max_size=max_rows).map(" ".join), max_size=max_rows).map("\n".join)


GRAM_FILES = st.builds(
    lambda head, body: f"{head}\n{body}",
    st.sampled_from(["gram n=2 d=1", "gram n=2 d=2", "gram n=3 d=1", "gram n=1 d=1", "gram", "gram n=2",
                     "gram d=1", "gram n=x d=1", "gram n==2 d=1", "gram n=0 d=1", "gram n=2 d=0", "nonsense"]),
    st.one_of(
        _rows(RATIONALS),
        # square and symmetric, so the file reaches the Gram pipelines
        st.integers(1, 4).flatmap(
            lambda n: st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n).map(
                lambda v: "\n".join(" ".join(str(v[min(i, j) * n + max(i, j)]) for j in range(n)) for i in range(n))
            )
        ),
    ),
)
FUNCTIONAL_FILES = st.one_of(
    st.builds(
        lambda head, vals: head + "\n" + "\n".join(vals),
        st.sampled_from(["functional n=3 2d=6", "functional", "nope"]),
        st.integers(0, 30).flatmap(lambda k: st.lists(RATIONALS, min_size=k, max_size=k)),
    ),
    st.just((GOLDEN / "demo_functional.txt").read_text()),
)
POINT_FILES = st.one_of(
    st.lists(st.lists(RATIONALS, min_size=2, max_size=4).map(",".join), max_size=10).map("\n".join),
    st.lists(st.lists(st.integers(-3, 3).map(str), min_size=3, max_size=3).map(",".join),
             min_size=9, max_size=9).map("\n".join),
    st.just((GOLDEN / "demo_points.txt").read_text()),
)
WEIGHTS = st.one_of(
    st.lists(RATIONALS, max_size=10).map(",".join),
    st.lists(st.integers(1, 4), min_size=8, max_size=8).map(lambda ws: ",".join(map(str, ws + [-2]))),
)
SEXTIC_TEXTS = st.one_of(X_POLYS, st.just((GOLDEN / "demo_sextic.txt").read_text()))
CATALOG_NAMES = st.builds(lambda name, k: name * k, st.sampled_from(["degree4.cat", "x", "4;a;(1 2 3 4)"]),
                          st.integers(256, 300))
CATALOGS = st.one_of(
    st.sampled_from(["", "x", "4;a;(1 2 3 4)\n6;b;(1 2 3 4 5 6)", "0;a;()", "4;a;", "4;x;(1 2"]),
    st.lists(st.builds(lambda d, g: f"{d};g;{g}", DEGREES, CYCLES), max_size=3).map("\n".join),
)


# each argument strategy yields (words, {file name: contents})
def _arg(flag, values):
    return values.map(lambda v: ([f"{flag}={v}"], {}))


def _opt(flag, values):
    return st.one_of(st.just(([], {})), _arg(flag, values))


def _file(flag, name, contents):
    return contents.map(lambda text: ([flag, name], {name: text}))


def _opt_file(flag, name, contents):
    return st.one_of(st.just(([], {})), _file(flag, name, contents))


def _command(words, *args):
    return st.tuples(*args).map(
        lambda parts: (words + [w for ws, _ in parts for w in ws], {k: v for _, fs in parts for k, v in fs.items()})
    )


INVOCATIONS = st.one_of(
    _command(["field", "normform"], _arg("--minpoly", T_POLYS), _opt("--linform", LINFORMS)),
    _command(["field", "galois"], _arg("--minpoly", T_POLYS)),
    _command(["field", "obstruct"], _arg("--minpoly", T_POLYS), _opt("--linform", LINFORMS),
             _opt("--galois-gens", CYCLES)),
    _command(["groups", "classify"], _arg("--gens", CYCLES), _opt("--degree", DEGREES)),
    _command(["groups", "char-number"], _arg("--gens", CYCLES), _arg("--inv", CYCLES), _opt("--degree", DEGREES)),
    _command(["groups", "table"],
             st.one_of(_file("--catalog", "groups.cat", CATALOGS), _arg("--catalog", CATALOG_NAMES))),
    _command(["boundary", "construct"], _file("--points", "points.txt", POINT_FILES), _arg("--tuple", WEIGHTS)),
    _command(["boundary", "certify"],
             st.one_of(_file("--form", "form.txt", SEXTIC_TEXTS), _arg("--form", _long(SEXTIC_TEXTS))),
             _file("--functional", "alpha.txt", FUNCTIONAL_FILES), _opt_file("--witness", "witness.txt", GRAM_FILES)),
    _command(["gram", "verify"], _arg("--form", st.one_of(X_POLYS, _long(X_POLYS))), _arg("--squares", X_LISTS)),
    _command(["gram", "extract-q"], _arg("--form", st.one_of(WIDE_POLYS, _long(WIDE_POLYS))),
             _arg("--basis", st.one_of(WIDE_LISTS, _long(WIDE_LISTS)))),
    # a form of twice the degree of its basis, so that most draws reach the product system
    st.integers(1, 3).flatmap(
        lambda d: _command(["gram", "extract-q"], _arg("--form", _forms(WIDE_VARIABLES, 2 * d)),
                           _arg("--basis", st.lists(_forms(WIDE_VARIABLES, d), min_size=1, max_size=3).map(";".join)))
    ),
    _command(["gram", "shrink"], _file("--g1", "g1.txt", GRAM_FILES), _file("--g2", "g2.txt", GRAM_FILES)),
)


@settings(max_examples=200, deadline=3000, suppress_health_check=[HealthCheck.too_slow])
@given(INVOCATIONS)
def test_malformed_arguments_exit_with_a_documented_code(invocation):
    words, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text)
        argv = [str(Path(tmp) / w) if w in files else w for w in words]
        try:
            code = run(argv).exit_code
        except SystemExit as exc:  # argparse rejects the usage
            code = exc.code
    assert code in (0, 1, 2, 3)


# -- tracebacks found by the fuzz test, each kept as a regression case ------


GRAM_HEADER = "ParseError: gram file must start with 'gram n=<vars> d=<half-degree>'"


@pytest.mark.parametrize(
    "argv, files, report",
    [
        (["gram", "shrink", "--g1", "g1.txt", "--g2", "g1.txt"], {"g1.txt": "gram d=1\n1 0\n0 1"}, GRAM_HEADER),
        (["gram", "shrink", "--g1", "g1.txt", "--g2", "g1.txt"], {"g1.txt": "gram n=2 d=1 d\n1 0\n0 1"}, GRAM_HEADER),
        (["gram", "shrink", "--g1", "g1.txt", "--g2", "g1.txt"], {"g1.txt": "gram n=x d=1\n1 0\n0 1"}, GRAM_HEADER),
        (["gram", "shrink", "--g1", "g1.txt", "--g2", "g2.txt"],
         {"g1.txt": "gram n=2 d=1\n0 0\n0 0", "g2.txt": "gram n=2 d=2\n0 0 0\n0 0 0\n0 0 1"}, "DifferentForms: "),
        (["groups", "table", "--catalog", "groups.cat"], {"groups.cat": "# no groups\n"}, "ParseError: "),
        (["groups", "table", "--catalog", "groups.cat"], {"groups.cat": "4;a;(1 2 3 4)\n6;b;(1 2 3 4 5 6)"},
         "DimensionMismatch: "),
        (["groups", "classify", "--gens", "()", "--degree", "-1"], {}, "ParseError: "),
        (["field", "obstruct", "--minpoly", "0*t", "--galois-gens", "()"], {}, "ParseError: "),
        (["boundary", "certify", "--form", "form.txt", "--functional", str(GOLDEN / "demo_functional.txt")],
         {"form.txt": "x1^2"}, "HeterogeneousDegrees: "),
        (["boundary", "certify", "--form", "form.txt", "--functional", str(GOLDEN / "demo_functional.txt")],
         {"form.txt": "x1^6-x1^6"}, "ZeroPolynomial: "),
        (["gram", "extract-q", "--form", "x1*x2-x2*x1", "--basis", "x1;x2"], {}, "ZeroPolynomial: "),
    ],
    ids=["gram-header-without-n", "gram-header-word-without-value", "gram-header-non-integer",
         "shrink-different-forms", "empty-catalog", "mixed-catalog", "nonpositive-degree",
         "zero-minpoly-with-generators", "certify-non-sextic", "certify-zero-form", "extract-zero-form"],
)
def test_input_errors_exit_3(tmp_path, argv, files, report):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    res = run([str(tmp_path / w) if w in files else w for w in argv])
    assert res.exit_code == EXIT_INPUT
    assert res.report.startswith(report)


def test_option_value_double_dash_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["field", "obstruct", "--minpoly=--"])
    assert exc.value.code == EXIT_INPUT
