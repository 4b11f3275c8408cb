"""Exact rational sums-of-squares certificates.

Certifies when homogeneous polynomials with rational coefficients are (or
provably are not) sums of squares over the rationals: a Galois-theoretic
obstruction built on norm forms of totally imaginary number fields, and
exact boundary constructions for ternary sextics via nine-point
configurations and Gram spectrahedra.  All certificates are produced in
exact rational arithmetic.
"""

from .boundary import (
    BoundaryCert,
    BoundaryChain,
    LinearFunctional,
    NinePointConfig,
    PositivityVerdict,
    UniquenessCert,
    WeightTuple,
    ZeroSetVerdict,
    assemble_sextic,
    boundary_chain,
    boundary_cert,
    cb_relation,
    check_tuple,
    demo_kernel_cubics,
    demo_points,
    demo_tuple,
    empty_zero_check,
    functional_from_points,
    functional_from_tuple,
    hilbert_function,
    kernel_cubics,
    moment_matrix,
    strict_positivity_cert,
    uniqueness_cert,
)
from .foursquares import four_squares, four_squares_int
from .gram import (
    GramPoint,
    QSosWitness,
    ShrinkResult,
    SosRep,
    extract_qsos,
    face_dimension,
    gram_from_squares,
    is_gram_point,
    mu,
    shrink_span,
    span_basis,
)
from .linalg import PsdVerdict, SymMatrix, ldl_sos, lin_solve, nullspace, psd_check, rank, rref
from .numfield import (
    Conclusion,
    GaloisData,
    GeneralPosition,
    ObstructionCert,
    QuarticGalois,
    RootSystem,
    TwoSquareWitness,
    canonical_linear_form,
    general_position,
    isolate_roots,
    norm_form,
    obstruction_check,
    quartic_galois,
    real_sos2_witness,
)
from .permgroup import (
    CatalogTable,
    FpfClassInfo,
    GroupAnalysis,
    GroupDesc,
    Perm,
    char_number,
    classify,
    classify_catalog,
    enumerate_group,
    fpf_involution_classes,
    is_transitive,
    is_two_transitive,
    load_bundled_catalog,
    orbit_closure,
    parse_catalog,
)
from .poly import Poly, UniPoly, monomials
from .resultants import discriminant, pencil_det, resultant, resultant_rational
from .sturm import count_real_roots, isolate_real_roots, rational_roots

__version__ = "0.1.0"
