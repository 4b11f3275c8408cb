"""Exact arithmetic for the input generators and the output checks.

The checks must not trust the code under test, so this module parses the
printed form ``7/2*x1^4*x3^2 - x2^6``, multiplies polynomials and reduces
matrices itself.  A polynomial is a dict from exponent tuples to
``Fraction`` coefficients, with no zero entries; a matrix is a list of
rows of ``Fraction``.
"""

import re
from fractions import Fraction
from itertools import combinations_with_replacement

_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")
_VAR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse(text: str, nvars: int) -> dict:
    """Parse a sum of monomial terms in ``x1..x<nvars>``."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    out: dict = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse {text!r} at {pos}")
        pos = m.end()
        coeff = Fraction(-1 if m.group(1) == "-" else 1)
        exp = [0] * nvars
        for factor in m.group(2).split("*"):
            v = _VAR.match(factor)
            if v:
                i = int(v.group(1)) - 1
                if not 0 <= i < nvars:
                    raise ValueError(f"variable x{i + 1} out of range in {text!r}")
                exp[i] += int(v.group(2) or 1)
            else:
                coeff *= Fraction(factor)
        add_term(out, tuple(exp), coeff)
    return out


def add_term(p: dict, exp: tuple, coeff) -> None:
    c = p.get(exp, 0) + coeff
    if c:
        p[exp] = c
    else:
        p.pop(exp, None)


def add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        add_term(out, e, c)
    return out


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            add_term(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return out


def scale(p: dict, c) -> dict:
    return {e: v * c for e, v in p.items()} if c else {}


def sum_of_squares(polys) -> dict:
    total: dict = {}
    for p in polys:
        total = add(total, mul(p, p))
    return total


def evaluate(p: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        term = c
        for x, k in zip(point, e):
            term *= x**k
        total += term
    return total


def format_poly(p: dict) -> str:
    """Print in the program's input grammar (terms joined by ``+``/``-``)."""
    if not p:
        return "0"
    chunks = []
    for e, c in sorted(p.items(), reverse=True):
        mono = "*".join(f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}" for i, k in enumerate(e) if k)
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        chunks.append(("-" if c < 0 else "+") + body)
    text = "".join(chunks)
    return text[1:] if text[0] == "+" else text


def format_univariate(coeffs, var: str = "t") -> str:
    """Ascending integer coefficients as ``c0+c1*t+...`` in the program's grammar."""
    chunks = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        chunks.append(("-" if c < 0 else "+") + body)
    if not chunks:
        return "0"
    text = "".join(chunks)
    return text[1:] if text[0] == "+" else text


def monomials(nvars: int, degree: int) -> list[tuple]:
    """Exponent vectors of one degree, graded-lex descending (the Gram basis order)."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out, reverse=True)


def rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    sign = 1
    prod = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        prod *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return sign * prod


def is_positive_definite(rows) -> bool:
    """Symmetric Gaussian elimination: every pivot must be positive."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return True


def uni_gcd_degree(a, b) -> int:
    """Degree of gcd(a, b) for ascending coefficient lists over the rationals."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    while b and not b[-1]:
        b.pop()
    while b:
        while a and not a[-1]:
            a.pop()
        while len(a) >= len(b):
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] -= f * c
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1
