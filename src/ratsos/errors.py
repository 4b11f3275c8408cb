"""Exception types shared across the toolkit."""


class RatsosError(Exception):
    """Base class for all toolkit errors."""


class CheckFailed(RatsosError):
    """An exact check of a computed result failed; the result is withheld."""


class ParseError(RatsosError):
    """Malformed polynomial, permutation, matrix or catalog text."""


class DimensionMismatch(RatsosError):
    pass


class OutOfRange(RatsosError):
    """An argument outside the range where the operation is defined: a negative power, an empty interval."""


class NotPsd(RatsosError):
    """A matrix required to be positive semidefinite is not."""


class NonPositive(RatsosError):
    """four_squares needs a strictly positive rational."""


class ZeroPolynomial(RatsosError):
    pass


class NotSquarefree(RatsosError):
    pass


class NotMonic(RatsosError):
    pass


class PrecisionExhausted(RatsosError):
    """Interval refinement hit the precision cap without certifying."""


class Reducible(RatsosError):
    """Polynomial expected to be irreducible has a proper rational factor."""


class DegreeTooSmall(RatsosError):
    pass


class GaloisDataMissing(RatsosError):
    """Galois action must be supplied for fields of degree above four."""


class OrderExceeded(RatsosError):
    """Group order past the enumeration bound; the count reported is ``bound + 1``."""

    def __init__(self, partial_count: int, bound: int):
        super().__init__(f"group order exceeds bound {bound} (found {partial_count} elements)")
        self.partial_count = partial_count
        self.bound = bound


class NotInvolution(RatsosError):
    pass


class NotTransitive(RatsosError):
    """The characteristic number is defined only for a transitive group."""


class HasFixedPoint(RatsosError):
    pass


class NotInGroup(RatsosError):
    """Supplied permutation is provably outside the generated group."""


class NotCayleyBacharach(RatsosError):
    """Nine-point evaluation matrix does not have a one-dimensional left kernel."""

    def __init__(self, kernel_dim: int):
        super().__init__(f"left kernel has dimension {kernel_dim}, expected 1")
        self.kernel_dim = kernel_dim


class DuplicatePoint(RatsosError):
    pass


class LinearlyDependent(RatsosError):
    pass


class HeterogeneousDegrees(RatsosError):
    pass


class NotQuadraticallyIndependent(RatsosError):
    """Pairwise products of the basis are linearly dependent; the restricted
    Gram matrix is not unique."""


class NoSolution(RatsosError):
    """Linear system has no solution (form outside the span of products)."""


class SpansDiffer(RatsosError):
    pass


class EqualPoints(RatsosError):
    pass


class DifferentForms(RatsosError):
    """Two Gram points represent different forms."""


class MissingGramWitness(RatsosError):
    """Boundary certificate needs an explicit SOS witness for membership."""
