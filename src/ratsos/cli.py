"""Command-line surface.

Exit codes: 0 = certified/success, 1 = refuted/negative verdict,
2 = inconclusive, 3 = input error.  A NotQSos certificate is a *success*
of the obstruction method (exit 0); one that rests on a Galois group from
``--galois-gens`` of degree > 4 is conditional and exits 2 (a supplied
quartic group is checked against the derived one).  Negative verdicts about
the inputs map to exit 1: alpha(f) != 0, squares that expand to another form
(``gram verify``), a form with no PSD Gram matrix or outside the span of
the basis products (``gram extract-q``), and two Gram points that are equal
or have different spans (``gram shrink``).  ``gram shrink`` on an input
that is not PSD or on two points of different forms is an input error
(exit 3), as is a malformed file.  Each check on outside input raises a
named ``RatsosError`` where the input is parsed, and :func:`run` alone
turns it, or a ``MemoryError``, into exit 3 with ``<ErrorType>: <message>``;
only a file that cannot be read (or is not UTF-8) or written prints
``input error: <message>``.
Reports embed every intermediate exact value so they can be re-verified
independently.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import boundary as bd
from . import gram as gr
from . import numfield as nf
from .errors import (
    CheckFailed,
    EqualPoints,
    NotInGroup,
    NotPsd,
    NotQuadraticallyIndependent,
    NoSolution,
    ParseError,
    RatsosError,
    SpansDiffer,
)
from .linalg import SymMatrix
from .permgroup import (
    FpfClassInfo,
    GroupDesc,
    Perm,
    char_number,
    classify,
    classify_catalog,
    load_bundled_catalog,
    parse_catalog,
    parse_generators,
)
from .poly import Poly, UniPoly, _format_monomial, data_lines, parse_rational

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    report: str


def _parse_linform(text: str) -> tuple[UniPoly, ...]:
    chunks = [c.strip() for c in text.split(";")]
    if not chunks or not all(chunks):
        raise ParseError(f"linear form needs ';'-separated entries, got {text!r}")
    return tuple(UniPoly.parse(c) for c in chunks)


def _is_file(source: str) -> bool:
    """Whether ``source`` names a file; text too long for a path name is not one."""
    try:
        return Path(source).is_file()
    except OSError:
        return False


def _load_catalog(source: str):
    if _is_file(source):
        return parse_catalog(Path(source).read_text())
    if source in ("degree4.cat", "degree6.cat", "degree8.cat"):
        return load_bundled_catalog(int(source[6]))
    raise FileNotFoundError(f"no catalog file or bundled catalog named {source!r}")


def _read_poly_file(source: str, nvars: int | None = None) -> Poly:
    text = Path(source).read_text() if _is_file(source) else source
    return Poly.parse(text.strip(), nvars=nvars)


def _parse_gram_file(text: str) -> gr.GramPoint:
    lines = [line for _, line in data_lines(text)]
    try:
        header = dict(part.split("=") for part in lines[0].split()[1:]) if lines[0].startswith("gram") else {}
        nvars, d = int(header["n"]), int(header["d"])
    except (IndexError, KeyError, ValueError):
        raise ParseError("gram file must start with 'gram n=<vars> d=<half-degree>'") from None
    rows = [[parse_rational(v) for v in ln.split()] for ln in lines[1:]]
    return gr.GramPoint(nvars, d, SymMatrix.from_rows(rows))


def format_gram(point: gr.GramPoint) -> str:
    head = f"gram n={point.nvars} d={point.half_degree}"
    body = "\n".join(" ".join(str(v) for v in row) for row in point.matrix.rows)
    basis = " ".join(_format_monomial(exp) or "1" for exp in point.basis())
    return f"{head}\n# basis: {basis}\n{body}"


# ---------------------------------------------------------------------------
# groups


def _group_lines(degree: int, order: int, transitive: bool) -> list[str]:
    return [f"group on {degree} points, order {order}", f"transitive: {transitive}"]


def _conditions(info: FpfClassInfo) -> str:
    return f"(*) {'yes' if info.satisfies_star else 'no'}, (**) {'yes' if info.satisfies_starstar else 'no'}"


def cmd_groups(args) -> CommandResult:
    if args.subcommand == "table":
        catalog = _load_catalog(args.catalog)
        table = classify_catalog(catalog)
        if table.failures:
            return CommandResult(EXIT_INCONCLUSIVE, table.render())
        if args.json:
            payload = {"degree": table.degree, "row": list(table.row()), "columns": table.columns}
            return CommandResult(EXIT_OK, json.dumps(payload, indent=2))
        row = table.row()
        lines = ["  ".join(str(v) for v in row), table.render()]
        return CommandResult(EXIT_OK, "\n".join(lines))

    group = GroupDesc.from_text(args.gens, args.degree)
    if args.subcommand == "classify":
        analysis = classify(group)
        lines = _group_lines(group.degree, analysis.order, analysis.is_transitive)
        if not analysis.is_transitive:  # c is defined only for a transitive group
            return CommandResult(EXIT_INCONCLUSIVE, "\n".join(lines))
        lines += [
            f"2-transitive: {analysis.is_two_transitive}",
            f"fpf involution classes: {len(analysis.fpf_classes)}",
        ]
        for info in analysis.fpf_classes:
            lines.append(f"  t = {info.rep}: c = {info.c}, {_conditions(info)}")
        return CommandResult(EXIT_OK, "\n".join(lines))

    if args.subcommand == "char-number":
        inv = Perm.parse(args.inv, group.degree)
        chain = group.chain()
        # char_number reports a non-involution or a fixed point before membership and transitivity
        if inv.is_involution() and inv.is_fixed_point_free():
            if inv.images not in chain:
                raise NotInGroup(f"{inv} is not an element of the generated group")
            if not chain.is_transitive:
                lines = _group_lines(group.degree, chain.order, False)
                return CommandResult(EXIT_INCONCLUSIVE, "\n".join(lines))
        info = FpfClassInfo(inv, char_number(group, inv))
        return CommandResult(EXIT_OK, f"c={info.c}, {_conditions(info)}")

    raise AssertionError(f"unknown groups subcommand {args.subcommand}")


# ---------------------------------------------------------------------------
# field


def cmd_field(args) -> CommandResult:
    m = UniPoly.parse(args.minpoly)
    lin = _parse_linform(args.linform) if getattr(args, "linform", None) else None

    if args.subcommand == "normform":
        f = nf.norm_form(m, lin)
        return CommandResult(EXIT_OK, str(f))

    if args.subcommand == "galois":
        qg = nf.quartic_galois(m)
        gens = ",".join(str(g) for g in qg.group.generators)
        lines = [
            f"label: {qg.group.label}",
            f"generators on root indices: {gens}",
            f"resolvent cubic: {qg.resolvent}",
            f"discriminant: {qg.discriminant}",
            f"conjugation tau: {qg.roots.pairing}",
        ]
        return CommandResult(EXIT_OK, "\n".join(lines))

    if args.subcommand == "obstruct":
        group = None
        if args.galois_gens:
            gens = parse_generators(args.galois_gens, m.degree())
            group = GroupDesc(m.degree(), gens, "user")
        cert = nf.obstruction_check(m, lin, group=group)
        if cert.conclusion is nf.Conclusion.NOT_Q_SOS:
            return CommandResult(EXIT_OK, cert.render())
        return CommandResult(EXIT_INCONCLUSIVE, cert.render())

    raise AssertionError(f"unknown field subcommand {args.subcommand}")


# ---------------------------------------------------------------------------
# boundary


def _render_chain(chain: bd.BoundaryChain) -> tuple[int, str]:
    lines = [
        f"Cayley-Bacharach relation u = ({', '.join(str(v) for v in chain.u)})",
        f"tuple check: {chain.verdict.reason}",
    ]
    if not chain.verdict.ok:
        return EXIT_NEGATIVE, "\n".join(lines)
    lines.append(
        "functional alpha on the graded-lex sextic basis: ("
        + ", ".join(str(c) for c in chain.alpha.coeffs)
        + ")"
    )
    if chain.kernel is None:
        lines.append("moment matrix: NOT PSD")
        return EXIT_NEGATIVE, "\n".join(lines)
    lines.append(f"moment matrix: PSD, rank {chain.rank}")
    lines.append(f"kernel cubics ({len(chain.kernel)}): " + "; ".join(str(p) for p in chain.kernel))
    if chain.f is None:
        lines.append("kernel dimension != 3: construction inconclusive")
        return EXIT_INCONCLUSIVE, "\n".join(lines)
    lines.append(f"assembled sextic f = {chain.f}")
    lines.append(f"Hilbert function of A/(U): {chain.hilbert}")
    lines.append(f"strict positivity: {chain.positivity.value}")
    strict = chain.positivity is bd.PositivityVerdict.STRICTLY_POSITIVE
    return _certificates(lines, chain.boundary, chain.uniqueness, strict)


def _certificates(
    lines: list[str], boundary: bd.BoundaryCert, uniqueness: bd.UniquenessCert, strict: bool = True
) -> tuple[int, str]:
    """Append the boundary and uniqueness reports and pick the exit code: 1
    when the boundary certificate fails, 2 when uniqueness fails or strict
    positivity is not established, else 0."""
    lines.append(boundary.render())
    if not boundary.certified:
        return EXIT_NEGATIVE, "\n".join(lines)
    lines.append(uniqueness.render())
    return (EXIT_OK if uniqueness.certified and strict else EXIT_INCONCLUSIVE), "\n".join(lines)


def cmd_boundary(args) -> CommandResult:
    if args.subcommand == "demo":
        chain = bd.boundary_chain(bd.demo_points(), bd.demo_tuple())
        code, report = _render_chain(chain)
        if code == EXIT_OK:
            checks_ok = (
                [abs(v) for v in chain.u] == [1, 1, 1, 1, 2, 2, 2, 2, 4]
                and chain.rank == 7
                and chain.hilbert == (1, 3, 6, 7, 6, 3, 1, 0)
            )
            if not checks_ok:
                return CommandResult(EXIT_INCONCLUSIVE, report + "\nexpected-value check FAILED")
            report += "\nall stages match their expected values"
        return CommandResult(code, report)

    if args.subcommand == "construct":
        points = bd.NinePointConfig.parse(Path(args.points).read_text())
        tup = bd.WeightTuple.parse(args.tuple)
        chain = bd.boundary_chain(points, tup)
        code, report = _render_chain(chain)
        if args.save_functional and chain.alpha is not None:
            Path(args.save_functional).write_text(chain.alpha.to_text())
            report += f"\nfunctional written to {args.save_functional}"
        return CommandResult(code, report)

    if args.subcommand == "certify":
        f = _read_poly_file(args.form, nvars=3)
        alpha = bd.LinearFunctional.parse(Path(args.functional).read_text())
        witness = _parse_gram_file(Path(args.witness).read_text()) if args.witness else None
        cert = bd.boundary_cert(f, alpha, witness=witness)
        return CommandResult(*_certificates([], cert, bd.uniqueness_cert(cert)))

    raise AssertionError(f"unknown boundary subcommand {args.subcommand}")


# ---------------------------------------------------------------------------
# gram


def _parse_poly_list(text: str, nvars: int | None = None) -> list[Poly]:
    return [Poly.parse(c.strip(), nvars=nvars) for c in text.split(";") if c.strip()]


def cmd_gram(args) -> CommandResult:
    if args.subcommand == "verify":
        f = _read_poly_file(args.form)
        squares = _parse_poly_list(args.squares, nvars=f.nvars)
        point = gr.gram_from_squares(gr.SosRep(tuple(squares)))
        expanded = gr.mu(point)
        if expanded != f:
            return CommandResult(EXIT_NEGATIVE, f"squares expand to {expanded}, not the given form")
        span = gr.span_basis(point)
        dim, extreme = gr.face_dimension(span)
        lines = [
            "valid Gram point",
            f"span dimension: {len(span)}",
            f"span basis: {'; '.join(str(p) for p in span)}",
            f"supporting face dimension: {dim}",
            f"extreme point: {'yes' if extreme else 'no'}",
            format_gram(point),
        ]
        return CommandResult(EXIT_OK, "\n".join(lines))

    if args.subcommand == "extract-q":
        f = _read_poly_file(args.form)
        basis = _parse_poly_list(args.basis, nvars=f.nvars)
        try:
            witness = gr.extract_qsos(f, basis)
        except NotPsd as exc:
            return CommandResult(EXIT_NEGATIVE, f"NotPsd: {exc}")
        except NoSolution as exc:
            return CommandResult(EXIT_NEGATIVE, f"NoSolution: {exc}")
        except NotQuadraticallyIndependent as exc:
            return CommandResult(EXIT_INCONCLUSIVE, f"NotQuadraticallyIndependent: {exc}")
        lines = [
            f"f = {witness.render()}",
            "weighted form: f = "
            + " + ".join(f"{w}*({p})^2" for w, p in zip(witness.weights, witness.polys)),
            "reconstruction verified exactly",
        ]
        return CommandResult(EXIT_OK, "\n".join(lines))

    if args.subcommand == "shrink":
        g1 = _parse_gram_file(Path(args.g1).read_text())
        g2 = _parse_gram_file(Path(args.g2).read_text())
        try:
            res = gr.shrink_span(g1, g2)
        except (SpansDiffer, EqualPoints) as exc:
            return CommandResult(EXIT_NEGATIVE, f"{type(exc).__name__}: {exc}")
        if res.s_exact is None:
            lo, hi = res.s_interval
            return CommandResult(
                EXIT_INCONCLUSIVE,
                f"DeferredKernel: boundary parameter s* is irrational, isolated in ({lo}, {hi}]",
            )
        lines = [
            f"boundary parameter s* = {res.s_exact}",
            f"rank drops {res.rank_before} -> {res.rank_after}",
            format_gram(res.boundary),
        ]
        return CommandResult(EXIT_OK, "\n".join(lines))

    raise AssertionError(f"unknown gram subcommand {args.subcommand}")


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratsos",
        description="Exact rational sums-of-squares certificates: Galois "
        "obstructions, Gram spectrahedra, boundary sextics.",
        epilog="Exit codes: 0 certified/success, 1 refuted, 2 inconclusive, 3 input error. "
        "A NotQSos certificate is a success of the method and exits 0; "
        "one that assumes a Galois group of degree > 4 from --galois-gens exits 2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    groups = sub.add_parser("groups", help="permutation group classification")
    gsub = groups.add_subparsers(dest="subcommand", required=True)
    table = gsub.add_parser("table", help="classification table row for a catalog")
    table.add_argument("--catalog", required=True, help="catalog file or bundled name (degree6.cat)")
    table.add_argument("--json", action="store_true", help="emit structured records")
    cls = gsub.add_parser("classify", help="analyze one group")
    cls.add_argument("--gens", required=True)
    cls.add_argument("--degree", type=int)
    cn = gsub.add_parser("char-number", help="characteristic number of an involution")
    cn.add_argument("--gens", required=True)
    cn.add_argument("--inv", required=True)
    cn.add_argument("--degree", type=int)

    field = sub.add_parser("field", help="number-field pipeline")
    fsub = field.add_subparsers(dest="subcommand", required=True)
    nform = fsub.add_parser("normform", help="norm form of a linear form")
    nform.add_argument("--minpoly", required=True)
    nform.add_argument("--linform", help="';'-separated coefficients in t, e.g. \"1; t; t^2\"")
    gal = fsub.add_parser("galois", help="quartic Galois group")
    gal.add_argument("--minpoly", required=True)
    obs = fsub.add_parser("obstruct", help="run the obstruction certificate")
    obs.add_argument("--minpoly", required=True)
    obs.add_argument("--linform")
    obs.add_argument("--galois-gens", help="generators of the Galois action (degree > 4)")

    boundary = sub.add_parser("boundary", help="nine-point boundary constructions")
    bsub = boundary.add_subparsers(dest="subcommand", required=True)
    bsub.add_parser("demo", help="run the bundled nine-point example end to end")
    con = bsub.add_parser("construct", help="run the chain on points and a weight tuple")
    con.add_argument("--points", required=True, help="file with 9 lines of p/q,p/q,p/q")
    con.add_argument("--tuple", required=True, help="nine comma-separated rationals")
    con.add_argument("--save-functional", help="write the functional of an accepted tuple to this file")
    cert = bsub.add_parser("certify", help="boundary + uniqueness certificates for (f, alpha)")
    cert.add_argument("--form", required=True)
    cert.add_argument("--functional", required=True)
    cert.add_argument("--witness", help="optional Gram matrix file")

    gram = sub.add_parser("gram", help="Gram spectrahedron operations")
    grsub = gram.add_subparsers(dest="subcommand", required=True)
    ver = grsub.add_parser("verify", help="verify a square list as a Gram point")
    ver.add_argument("--form", required=True)
    ver.add_argument("--squares", required=True, help="';'-separated polynomials")
    ext = grsub.add_parser("extract-q", help="rational SOS extraction on a basis")
    ext.add_argument("--form", required=True)
    ext.add_argument("--basis", required=True, help="';'-separated polynomials")
    shr = grsub.add_parser("shrink", help="walk two Gram points to a smaller span")
    shr.add_argument("--g1", required=True, help="gram matrix file")
    shr.add_argument("--g2", required=True, help="gram matrix file")

    return parser


DISPATCH = {
    "groups": cmd_groups,
    "field": cmd_field,
    "boundary": cmd_boundary,
    "gram": cmd_gram,
}


def run(argv=None) -> CommandResult:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if [] in vars(args).values():  # argparse reads an option value "--" as an empty list
            parser.error("an option value cannot be '--'")
    except SystemExit as exc:
        # argparse exits 2 on bad usage; remap to the input-error code
        raise SystemExit(EXIT_INPUT if exc.code else 0)
    try:
        return DISPATCH[args.command](args)
    except CheckFailed as exc:
        return CommandResult(EXIT_INCONCLUSIVE, f"{type(exc).__name__}: {exc}")
    except (OSError, UnicodeDecodeError) as exc:  # a missing or undecodable input, or an unwritable output
        return CommandResult(EXIT_INPUT, f"input error: {exc}")
    except RatsosError as exc:
        return CommandResult(EXIT_INPUT, f"{type(exc).__name__}: {exc}")
    except MemoryError:  # an input too large to hold, reported like any other bad input
        return CommandResult(EXIT_INPUT, "MemoryError: the input needs more memory than is available")


def main(argv=None):
    result = run(argv)
    try:
        print(result.report, flush=True)
    except BrokenPipeError:  # the reader has gone; exit with the command's code, without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit flush cannot fail again
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
