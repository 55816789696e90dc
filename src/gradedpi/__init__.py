"""Graded simple algebras from presentations, exact graded polynomial identity
testing, and the strongly-verbally-prime classification with witnesses."""

from .algebra import (
    AlgebraElement,
    BlockStructure,
    GradedAlgebra,
    M1,
    M2,
    M3,
    Presentation,
    apply_move,
    block_structure,
    build_algebra,
    is_normalized,
    normalize_presentation,
    presentations_equivalent,
)
from .binomials import (
    Binomial,
    EmpiricalCheck,
    GoodScalarContext,
    PathReport,
    PathRestriction,
    enumerate_binomials,
    good_binomial,
    good_permutation_scalar,
    good_permutations_of,
    is_crossed_product,
    is_good_permutation,
    is_pure,
    path_restriction,
    path_vanishes,
    pure_components,
    satisfies_path_property,
    separating_product_test,
    strongly_vp_empirical,
)
from .classify import (
    ClassificationReport,
    WitnessCertificate,
    WitnessPair,
    classify,
    verify_witness,
    witness_nonstrong,
)
from .cohomology import (
    Coboundary,
    CoboundaryObstruction,
    CoboundarySystem,
    Cocycle2,
    CocycleViolation,
    classes_cohomologous,
    invariance_obstruction,
    is_G_invariant_class,
    is_coboundary,
    is_trivial_class,
    smith_diagonalize,
    solve_congruences,
)
from .errors import (
    AlgebraMismatchError,
    BinomialConditionError,
    CocycleError,
    DegreeMismatchError,
    DisconnectedGradingError,
    DocumentError,
    FactorizationError,
    GradedPIError,
    HypothesisError,
    InexactDivisionError,
    InvalidTableError,
    NoWitnessError,
    NonMultilinearError,
    NotNormalError,
    NotSubgroupError,
    OrderMismatchError,
    TruncationError,
    VerificationFailedError,
)
from .grassmann import (
    EnvelopeAlgebra,
    GrassmannElement,
    envelope_identity_check,
)
from .groups import CosetDecomposition, FiniteGroup, Subgroup, equivalence_classes_tilde
from .polynomials import (
    GradedMonomial,
    GradedPolynomial,
    GradedVariable,
    IdentityReport,
    alternate,
    check_identity,
    disjoint_product,
    evaluate,
    evaluation_span,
    is_identity,
    monomial_polynomial,
    variables_for,
)
from .scalars import CycScalar, cyclotomic_polynomial, euler_phi, root_of_unity

__version__ = "0.1.0"
