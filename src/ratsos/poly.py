"""Exact rational polynomials.

Two representations are used throughout the toolkit:

* :class:`Poly` -- sparse multivariate forms over ``Fraction`` (norm forms,
  Gram expansions, cubics/sextics of the boundary constructions);
* :class:`UniPoly` -- dense univariate polynomials over ``Fraction``
  (minimal polynomials, Sturm chains, determinant polynomials).

The monomial order is graded lexicographic with ``x1 > x2 > ...``
everywhere, so matrix indexings and printed polynomials are stable across
modules and test fixtures.

Text grammar (round-trips bit-exactly through ``parse``/``str``): terms
joined by ``+``/``-``; a term is ``[coefficient *] monomial`` with the
coefficient an integer or ``p/q``; a monomial is ``x<i>[^e]`` factors
joined by ``*``.  Example: ``7/2*x1^4*x3^2 - x2^6``.
"""

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, OutOfRange, ParseError, ZeroPolynomial

Exp = tuple[int, ...]

_COEFF_RE = re.compile(r"^(\d+)(?:/(\d+))?$")
_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_T_RE = re.compile(r"^t(?:\^(\d+))?$")


def _parse_terms(text: str, factor_re: re.Pattern) -> list[tuple[Fraction, list[re.Match]]]:
    """The terms of the text grammar as (signed coefficient, factor matches).

    Terms are joined by ``+``/``-``; a term is an optional coefficient,
    which comes first and at most once, then ``*``-joined factors, each
    matching ``factor_re``.  Spaces and tabs are ignored.
    """
    s = text.replace(" ", "").replace("\t", "")
    if not s:
        raise ParseError("empty polynomial text")
    raw_terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(raw_terms) != s:
        raise ParseError(f"cannot tokenize {text!r}")
    terms = []
    for raw in raw_terms:
        parts = raw.lstrip("+-").split("*")
        coeff = Fraction(-1 if raw[0] == "-" else 1)
        if _COEFF_RE.match(parts[0]):
            coeff *= parse_rational(parts.pop(0))
        factors = []
        for part in parts:
            m = factor_re.match(part)
            if m is None:
                if _COEFF_RE.match(part):
                    raise ParseError(f"misplaced coefficient in term {raw!r}")
                raise ParseError(f"cannot parse factor {part!r} in {text!r}")
            factors.append(m)
        terms.append((coeff, factors))
    return terms


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple[Exp, ...]:
    """All exponent vectors of the given total degree, graded-lex descending."""
    if nvars < 1 or degree < 0:
        raise DimensionMismatch("need nvars >= 1 and degree >= 0")
    exps = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        exps.append(tuple(e))
    exps.sort(reverse=True)
    return tuple(exps)


def _format_monomial(exp: Exp) -> str:
    factors = []
    for i, e in enumerate(exp):
        if e == 1:
            factors.append(f"x{i + 1}")
        elif e > 1:
            factors.append(f"x{i + 1}^{e}")
    return "*".join(factors)


def _format_terms(terms: Iterable[tuple[Fraction, str]]) -> str:
    """The text grammar of nonzero (coefficient, monomial) terms in the given order."""
    out = ""
    for coeff, mono in terms:
        mag = abs(coeff)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if out:
            out += f" {'+' if coeff > 0 else '-'} {body}"
        else:
            out = body if coeff > 0 else f"-{body}"
    return out or "0"


class Poly:
    """Sparse multivariate polynomial with ``Fraction`` coefficients.

    ``terms`` maps exponent vectors (length ``nvars``) to nonzero
    coefficients; zero coefficients are never stored.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exp, Fraction] | None = None):
        if nvars < 1:
            raise DimensionMismatch("variable count must be positive")
        clean: dict[Exp, Fraction] = {}
        if terms:
            for exp, c in terms.items():
                c = Fraction(c)
                if not c:
                    continue
                exp = tuple(exp)
                if len(exp) != nvars or any(e < 0 for e in exp):
                    raise DimensionMismatch(f"bad exponent vector {exp} for {nvars} variables")
                clean[exp] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Poly":
        """The variable ``x<index>`` (1-based) in ``nvars`` variables."""
        if not 1 <= index <= nvars:
            raise DimensionMismatch("variable index out of range")
        exp = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls(nvars, {exp: Fraction(1)})

    @classmethod
    def monomial(cls, exp: Exp, coeff=1) -> "Poly":
        return cls(len(exp), {tuple(exp): Fraction(coeff)})

    @classmethod
    def parse(cls, text: str, nvars: int | None = None) -> "Poly":
        """Parse the polynomial grammar; infers the variable count unless given."""
        parsed: list[tuple[Fraction, dict[int, int]]] = []
        max_var = 0
        for coeff, factors in _parse_terms(text, _VAR_RE):
            powers: dict[int, int] = {}
            for m in factors:
                idx = int(m.group(1))
                if idx < 1:
                    raise ParseError(f"variable index must be >= 1 in {m.group(0)!r}")
                powers[idx] = powers.get(idx, 0) + (int(m.group(2)) if m.group(2) else 1)
                max_var = max(max_var, idx)
            parsed.append((coeff, powers))
        n = nvars if nvars is not None else max(max_var, 1)
        if max_var > n:
            raise ParseError(f"variable x{max_var} exceeds declared count {n}")
        terms: dict[Exp, Fraction] = {}
        for coeff, powers in parsed:
            exp = tuple(powers.get(i + 1, 0) for i in range(n))
            terms[exp] = terms.get(exp, Fraction(0)) + coeff
        return cls(n, terms)

    # -- basic queries -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exp: Exp) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def coeff_vector(self, basis: Sequence[Exp]) -> list[Fraction]:
        """Coefficients read off along a monomial basis; raises if terms stick out."""
        bset = set(basis)
        for e in self.terms:
            if e not in bset:
                raise DimensionMismatch(f"term {e} outside the given basis")
        return [self.terms.get(e, Fraction(0)) for e in basis]

    @classmethod
    def from_coeff_vector(cls, nvars: int, basis: Sequence[Exp], vec: Sequence) -> "Poly":
        if len(basis) != len(vec):
            raise DimensionMismatch("basis/vector length mismatch")
        return cls(nvars, {tuple(e): Fraction(c) for e, c in zip(basis, vec)})

    # -- arithmetic --------------------------------------------------------

    def _check_compat(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise DimensionMismatch("variable counts differ")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compat(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return Poly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly.constant(self.nvars, -Fraction(other)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Poly(self.nvars, {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compat(other)
        terms: dict[Exp, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = terms.get(e, Fraction(0)) + c1 * c2
                if v:
                    terms[e] = v
                elif e in terms:
                    del terms[e]
        return Poly(self.nvars, terms)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / Fraction(scalar))

    def __pow__(self, k: int):
        if k < 0:
            raise OutOfRange("negative power")
        result = Poly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise DimensionMismatch("point has wrong dimension")
        pt = [Fraction(p) for p in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(pt, e):
                if k:
                    v *= x**k
            total += v
        return total

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[Exp, Fraction]]:
        """Terms in graded-lex descending order (degree first, then x1 > x2 > ...)."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __str__(self):
        return _format_terms((coeff, _format_monomial(exp)) for exp, coeff in self.sorted_terms())

    def __repr__(self):
        return f"Poly({str(self)!r})"


class UniPoly:
    """Dense univariate polynomial over ``Fraction``, coefficients ascending.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading (last) coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):  # ascending powers
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def parse(cls, text: str) -> "UniPoly":
        """Parse a polynomial in ``t``, e.g. ``t^4+t+1``."""
        coeffs: dict[int, Fraction] = {}
        for coeff, factors in _parse_terms(text, _T_RE):
            power = sum(int(m.group(1)) if m.group(1) else 1 for m in factors)
            coeffs[power] = coeffs.get(power, Fraction(0)) + coeff
        top = max(coeffs) if coeffs else 0
        return cls([coeffs.get(i, Fraction(0)) for i in range(top + 1)])

    # -- queries -----------------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly([other])
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return UniPoly([c * v for v in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "UniPoly"):
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not other.coeffs:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        div = other.coeffs
        dq = len(rem) - len(div)
        if dq < 0:
            return UniPoly(), self
        quot = [Fraction(0)] * (dq + 1)
        lead = div[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(div) - 1] / lead
            quot[k] = c
            if c:
                for i, d in enumerate(div):
                    rem[k + i] -= c * d
        return UniPoly(quot), UniPoly(rem[: len(div) - 1])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, k: int):
        result = UniPoly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "UniPoly":
        if not self.coeffs:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        lead = self.coeffs[-1]
        return UniPoly([c / lead for c in self.coeffs])

    def remainder_sequence(self, other: "UniPoly") -> list["UniPoly"]:
        """Signed remainder sequence self, other, -rem(self, other), ... to its last nonzero term.

        The last term divides both inputs; two zeros give ``[0]``.  Each term
        is scaled by a positive rational to a primitive integer polynomial:
        coefficients stay small and signs stay as in a Sturm sequence.
        """
        seq = [UniPoly(_positive_primitive(p.coeffs)) for p in (self, other)]
        while seq[-1]:
            rem = -(seq[-2] % seq[-1])
            seq.append(UniPoly(_positive_primitive(rem.coeffs)))
        seq.pop()
        return seq

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly([other])
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        return _format_terms(
            (c, "" if k == 0 else ("t" if k == 1 else f"t^{k}"))
            for k, c in reversed(list(enumerate(self.coeffs)))
            if c
        )

    def __repr__(self):
        return f"UniPoly({str(self)!r})"


def sum_of_squares(polys: Sequence[Poly], weights: Sequence | None = None) -> Poly:
    """sum_i w_i p_i^2 for nonempty ``polys``, expanded exactly; w_i = 1 without ``weights``."""
    squares = (p * p for p in polys) if weights is None else (w * (p * p) for w, p in zip(weights, polys))
    total = Poly.zero(polys[0].nvars)
    for s in squares:
        total = total + s
    return total


def data_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, stripped line) for each line that is neither blank nor a ``#`` comment."""
    return [(n, line) for n, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.strip()) and not line.startswith("#")]


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def _positive_primitive(vals: Sequence[Fraction]) -> list[int]:
    """``vals``, empty or with a nonzero entry, times the positive rational making coprime integers."""
    den = lcm(*(v.denominator for v in vals))
    ints = [int(v * den) for v in vals]
    content = gcd(*ints)
    return [v // content for v in ints]


def primitive_vector(vec: Sequence[Fraction]) -> list[Fraction]:
    """Scale to integer entries with content 1 and positive first nonzero entry."""
    vals = [Fraction(v) for v in vec]
    if not any(vals):
        return vals
    ints = _positive_primitive(vals)
    sign = 1 if next(v for v in ints if v) > 0 else -1
    return [Fraction(sign * v) for v in ints]
