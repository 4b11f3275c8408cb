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
    GeneralPosition,
    ObstructionCert,
    QuarticGalois,
    RootSystem,
    canonical_linear_form,
    general_position,
    isolate_roots,
    norm_form,
    obstruction_check,
    quartic_galois,
)
from .permgroup import (
    CatalogTable,
    FpfClassInfo,
    GroupAnalysis,
    GroupDesc,
    Perm,
    StabChain,
    char_number,
    classify,
    classify_catalog,
    enumerate_group,
    fpf_involution_classes,
    load_bundled_catalog,
    orbit_closure,
    parse_catalog,
    schreier_sims,
)
from .poly import Poly, UniPoly, monomials
from .resultants import pencil_det, resultant
from .sturm import count_real_roots, isolate_real_roots, rational_roots, sturm_chain

__version__ = "0.1.0"
