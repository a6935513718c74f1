"""Exact structure computations for finite-dimensional nonassociative algebras.

An algebra is given by its structure-constant table over the rationals or a
prime field.  The package decides polynomial identity classes, computes
descending series, radicals, Frattini and socle data by exhaustive
enumeration over finite fields, builds the classical decompositions for
bicommutative, assosymmetric and Novikov algebras, and runs a catalogue of
structure-theorem checks against any algebra, exactly and deterministically.
"""

from .algebra import (
    Algebra,
    IdentityKind,
    annihilator,
    check_identity,
    first_identity_failure,
    idealizer,
    is_ideal,
    is_left_ideal,
    is_right_ideal,
    is_subalgebra,
    opposite,
    quotient,
    restrict,
    subspace_product,
)
from .corpus import Fixture, builtin_fixtures, fixture_by_name, search, validate_fixture
from .enumeration import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    FrattiniData,
    RadicalKind,
    frattini,
    ideals,
    is_semisimple,
    maximal_subalgebras,
    minimal_ideals,
    radical,
    socle,
    subalgebras,
    zero_socle,
)
from .errors import (
    AlgebraFileError,
    BudgetExceededError,
    PreconditionError,
    TheoremViolationError,
    ToolkitError,
    UnsupportedOperationError,
    UsageError,
)
from .fields import GF, QQ
from .fileformat import (
    AlgebraDocument,
    parse_algebra,
    parse_document,
    serialize_algebra,
    serialize_document,
)
from .linalg import Matrix, Subspace, kernel, span, subspace_intersect, subspace_sum
from .series import (
    ChiefSeries,
    NilpotencyProfile,
    SeriesKind,
    SeriesResult,
    chief_series,
    compute_series,
    nilpotency_profile,
)
from .structure import (
    PhiFreeSplit,
    SemisimpleBicommutativeDecomposition,
    assosymmetric_report,
    decompose_semisimple_bicommutative,
    novikov_radical_report,
    phi_free_split,
)
from .verify import (
    CheckId,
    VerificationReport,
    bracket_power_oracle,
    describe,
    verify,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "AlgebraDocument",
    "AlgebraFileError",
    "BudgetExceededError",
    "CheckId",
    "ChiefSeries",
    "DEFAULT_BUDGET",
    "EnumerationBudget",
    "Fixture",
    "FrattiniData",
    "GF",
    "IdentityKind",
    "Matrix",
    "NilpotencyProfile",
    "PhiFreeSplit",
    "PreconditionError",
    "QQ",
    "RadicalKind",
    "SemisimpleBicommutativeDecomposition",
    "SeriesKind",
    "SeriesResult",
    "Subspace",
    "TheoremViolationError",
    "ToolkitError",
    "UnsupportedOperationError",
    "UsageError",
    "VerificationReport",
    "annihilator",
    "assosymmetric_report",
    "bracket_power_oracle",
    "describe",
    "builtin_fixtures",
    "check_identity",
    "chief_series",
    "compute_series",
    "decompose_semisimple_bicommutative",
    "first_identity_failure",
    "fixture_by_name",
    "frattini",
    "ideals",
    "idealizer",
    "is_ideal",
    "is_left_ideal",
    "is_right_ideal",
    "is_semisimple",
    "is_subalgebra",
    "kernel",
    "maximal_subalgebras",
    "minimal_ideals",
    "nilpotency_profile",
    "novikov_radical_report",
    "opposite",
    "parse_algebra",
    "parse_document",
    "phi_free_split",
    "quotient",
    "radical",
    "restrict",
    "search",
    "serialize_algebra",
    "serialize_document",
    "socle",
    "span",
    "subalgebras",
    "subspace_intersect",
    "subspace_product",
    "subspace_sum",
    "validate_fixture",
    "verify",
    "verify_all",
    "zero_socle",
]
