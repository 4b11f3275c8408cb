"""Rational interval and complex-box arithmetic.

Endpoints are exact Fractions, so every containment statement proved here
is a certificate, not an approximation.  Boxes are axis-aligned rectangles
in the complex plane.
"""

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x) -> "Interval":
        x = Fraction(x)
        return cls(x, x)

    @classmethod
    def around(cls, center, radius) -> "Interval":
        c, r = Fraction(center), Fraction(radius)
        return cls(c - r, c + r)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    def contains(self, x) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in the complex plane with rational endpoints."""

    re: Interval
    im: Interval

    @classmethod
    def around(cls, re_center, im_center, radius) -> "Box":
        return cls(Interval.around(re_center, radius), Interval.around(im_center, radius))

    @classmethod
    def point(cls, re, im=0) -> "Box":
        return cls(Interval.point(re), Interval.point(im))

    def __add__(self, other: "Box") -> "Box":
        return Box(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Box") -> "Box":
        return Box(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "Box") -> "Box":
        return Box(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "Box":
        return Box(self.re, -self.im)

    def excludes_zero(self) -> bool:
        return not (self.re.contains_zero() and self.im.contains_zero())

    def overlaps(self, other: "Box") -> bool:
        return self.re.overlaps(other.re) and self.im.overlaps(other.im)

    def strictly_above_axis(self) -> bool:
        return self.im.lo > 0

    def strictly_below_axis(self) -> bool:
        return self.im.hi < 0


def eval_unipoly_box(coeffs, z: Box) -> Box:
    """Interval Horner evaluation of a rational-coefficient polynomial at a box."""
    acc = Box.point(0)
    for c in reversed(list(coeffs)):
        acc = acc * z + Box.point(c)
    return acc


def det3_box(rows: list[list[Box]]) -> Box:
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
