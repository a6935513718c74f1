"""Mechanical verification catalogue for the structure theory.

Each catalogued check takes one algebra, evaluates the hypotheses of the
corresponding statement (identity class, characteristic, solvability,
phi-freeness, ...), and then tests the conclusion.  The result is an
applicability-aware report: a check whose hypotheses fail is reported as
not applicable, never as a failure.

Universally quantified conclusions (over ideals, minimal ideals, maximal
subalgebras, elements) are settled by exhaustive enumeration over finite
fields.  Over the rationals enumeration is impossible, so checks accept a
`certified` mapping supplying the ingredients (radicals, Frattini ideal,
ideal lists, complements).  Certified values are trusted, and every use
is recorded in the report's `assumed` list; fixture loading is
responsible for validating certificates, not this module.

Facts come from an `analyzer.Analyzer`.  A check that states a
decomposition calls its builder in `structure`, and a TheoremViolationError
raised there is reported as the check failing, with the error's message as
the counterexample's `problem`.
"""

import itertools
from dataclasses import dataclass
from enum import Enum

from .errors import (
    BudgetExceededError,
    PreconditionError,
    TheoremViolationError,
    UnsupportedOperationError,
    UsageError,
)
from .linalg import Subspace, span, subspace_intersect
from .algebra import (
    Algebra,
    IdentityKind,
    acts_nilpotently,
    annihilator,
    check_identity,
    first_identity_failure,
    fitting_component,
    idealizer,
    is_ideal,
    is_left_ideal,
    is_right_nil,
    is_subalgebra,
    quotient,
    restrict,
)
from .series import SeriesKind, compute_series
from .enumeration import DEFAULT_BUDGET, RadicalKind
from .analyzer import Analyzer
from .structure import (
    bicommutative_split,
    direct_sum_equals,
    has_natural_identity,
    is_complement,
    novikov_refinement,
    require_ideal_products,
    semisimple_decomposition,
    simplicity_failure,
    zero_socle_split,
)


class CheckId(str, Enum):
    """Catalogue of verifiable statements, in fixed report order."""

    NATURAL_PRODUCT_BICOMMUTATIVE = "natural_product_bicommutative"
    NATURAL_PRODUCT_ASSOSYMMETRIC = "natural_product_assosymmetric"
    NATURAL_PRODUCT_NOVIKOV = "natural_product_novikov"
    NILPOTENT_MAX_SUBALG_IDEAL = "nilpotent_max_subalg_ideal"
    PHI_EQ_ASQ_NILPOTENT = "phi_eq_Asq_nilpotent"
    WEAKLY_NILPOTENT_IMPLIES_NILPOTENT = "weakly_nilpotent_implies_nilpotent"
    CHIEF_FACTOR_ANNIHILATED = "chief_factor_annihilated"
    DT1_ASQ_COMM_ASSOC = "dt1_Asq_comm_assoc"
    SOLVABLE_BICOMM_ASQ_NILPOTENT = "solvable_bicomm_Asq_nilpotent"
    AR_RA_NILPOTENT_BICOMM = "AR_RA_nilpotent_bicomm"
    FITTING_SUBALGEBRA = "fitting_subalgebra"
    FACTOR_ACTS_NILPOTENTLY = "factor_acts_nilpotently"
    PHI_RIGHT_NIL = "phi_right_nil"
    PHI_NILPOTENT_BICOMM = "phi_nilpotent_bicomm"
    MIN1_MINIMAL_IDEAL_SIDES = "min1_minimal_ideal_sides"
    BIMAX_RIGHT_NILPOTENT = "bimax_right_nilpotent"
    BIANN_SUBALGEBRAS = "biann_subalgebras"
    MINIMAL_IDEAL_ZERO_OR_SIMPLE = "minimal_ideal_zero_or_simple"
    SS_IDEALS_IN_ASQ = "ss_ideals_in_Asq"
    BISS_DECOMPOSITION = "biss_decomposition"
    KLEINFELD_SEMISIMPLE_ASSOCIATIVE = "kleinfeld_semisimple_associative"
    ASSOSYM_SOLVABLE_IS_NILPOTENT = "assosym_solvable_is_nilpotent"
    ASSOSYM_QUOTIENT_ASSOCIATIVE = "assosym_quotient_associative"
    ASSOSYM_PHI_NILPOTENT = "assosym_phi_nilpotent"
    NOVIKOV_EQUIVALENCES = "novikov_equivalences"
    LEFT_NILPOTENT_NOVIKOV_NILPOTENT = "left_nilpotent_novikov_nilpotent"
    NOVIKOV_SOLVABLE_PHI_NILPOTENT = "novikov_solvable_phi_nilpotent"
    NOVAR_AR_NILPOTENT = "novar_AR_nilpotent"
    NOVIKOV_ANN_SUBALGEBRAS = "novikov_ann_subalgebras"
    SPLIT_IFF_PHI_FREE = "split_iff_phi_free"
    T_SOCLE_EQUALITIES = "t_socle_equalities"
    BIPHIFREE_STRUCTURE = "biphifree_structure"
    PHIFREE_NOVIKOV = "phifree_novikov"
    ARR_INCLUSIONS = "arr_inclusions"
    CHAR0_NOVIKOV_SPLIT = "char0_novikov_split"
    CHAR0_RAD_ZERO_ALGEBRA = "char0_rad_zero_algebra"
    CHAR0_PHI_IN_RSQ = "char0_phi_in_Rsq"
    CHAR0_PHI_EQ_RSQ = "char0_phi_eq_Rsq"
    A3_NOVIKOV_IFF_BICOMM = "a3_novikov_iff_bicomm"
    NOVMAX_IMPLICATIONS = "novmax_implications"
    SOLVABLE_BICOMM_A3_IFF_LEFT_IDEALS = "solvable_bicomm_A3_iff_left_ideals"


@dataclass(frozen=True)
class VerificationReport:
    check: CheckId
    applicable: bool
    holds: bool | None
    reason: str | None
    witness: dict | None
    counterexample: dict | None
    assumed: tuple
    notes: tuple


class _NotApplicable(Exception):
    """Raised by a check whose hypotheses fail; the message is the reason."""


_NOVIKOV = (IdentityKind.NOVIKOV_LEFT, IdentityKind.NOVIKOV_RIGHT)


def _require(condition, reason):
    if not condition:
        raise _NotApplicable(reason)


def _holds(witness=None):
    return True, witness, None


def _fails(counterexample):
    return False, None, counterexample


# ---------------------------------------------------------------------------
# check registry: @_check declares a check's function and description once
# ---------------------------------------------------------------------------

# `_run_check` reads _CHECK_FUNCS at each call, so an entry rebound by a
# profiler or test wrapper takes effect without re-importing
_CHECK_FUNCS = {}
_DESCRIPTIONS = {}


def _check(check, description):
    def register(fn):
        _CHECK_FUNCS[check] = fn
        _DESCRIPTIONS[check] = description
        return fn

    return register


def describe(check) -> str:
    """One-line summary of what a check asserts."""
    return _DESCRIPTIONS[CheckId(check)]


# ---------------------------------------------------------------------------
# steps shared by several checks
# ---------------------------------------------------------------------------


def _orientations(z, right, left, reason):
    """(view, label) pairs: the algebra itself when the right-hand hypothesis
    holds, and its opposite when the left-hand one does; `reason` if neither."""
    _require(right or left, reason)
    views = [(z, "right")] if right else []
    if left:
        views.append((z.mirrored(), "left"))
    return views


def _commutative_orientations(z):
    return _orientations(
        z,
        z.identity(IdentityKind.RIGHT_COMMUTATIVE),
        z.identity(IdentityKind.LEFT_COMMUTATIVE),
        "requires a right or left commutative algebra",
    )


def _identity_counterexample(algebra, kind, problem, indices_key="basis_indices", **extra):
    """The first basis tuple violating `kind` as a counterexample, or None."""
    failure = first_identity_failure(algebra, kind)
    if failure is None:
        return None
    _, indices, lhs, rhs = failure
    return {"problem": problem, indices_key: indices, **extra, "lhs": lhs, "rhs": rhs}


def _annihilator_failure(A, ideal_list):
    """A counterexample if the annihilator of some listed ideal is not an ideal."""
    for b in ideal_list:
        ann = annihilator(A, b)
        if not is_ideal(A, ann):
            return {
                "problem": "annihilator of an ideal is not an ideal",
                "ideal": b,
                "annihilator": ann,
            }
    return None


def _phi_nilpotent(view):
    """Conclude that the Frattini ideal is nilpotent."""
    phi = view.phi()
    prof = view.profile(phi)
    if not prof.nilpotent:
        return _fails({"problem": "Frattini ideal is not nilpotent", "phi": phi})
    return _holds({"phi": phi, "nilpotent_index": prof.nilpotent_index})


# ---------------------------------------------------------------------------
# check implementations: each takes an Analyzer, returns (holds, witness, cx)
# ---------------------------------------------------------------------------


def _ideal_products(z, kinds):
    """The ideal list, and a counterexample if some product of two ideals is
    not an ideal; not applicable unless one of `kinds` holds."""
    if not any(z.identity(k) for k in kinds):
        raise _NotApplicable(
            "requires one of: " + ", ".join(k.value for k in kinds)
        )
    ideal_list = z.ideals()
    for left, right in itertools.product(ideal_list, repeat=2):
        product = z.prod(left, right)
        if not is_ideal(z.algebra, product):
            return ideal_list, {
                "problem": "product of ideals is not an ideal",
                "left": left,
                "right": right,
                "product": product,
            }
    return ideal_list, None


def _check_natural_product(z, kinds):
    ideal_list, counterexample = _ideal_products(z, kinds)
    if counterexample:
        return _fails(counterexample)
    return _holds({"ideal_pairs": len(ideal_list) ** 2})


@_check(CheckId.NATURAL_PRODUCT_BICOMMUTATIVE, "products of ideals are ideals (bicommutative)")
def check_natural_product_bicommutative(z):
    return _check_natural_product(z, (IdentityKind.BICOMMUTATIVE,))


@_check(CheckId.NATURAL_PRODUCT_ASSOSYMMETRIC, "products of ideals are ideals (assosymmetric)")
def check_natural_product_assosymmetric(z):
    return _check_natural_product(z, (IdentityKind.ASSOSYMMETRIC,))


@_check(CheckId.NATURAL_PRODUCT_NOVIKOV, "products of ideals, series terms and annihilators are ideals (Novikov)")
def check_natural_product_novikov(z):
    ideal_list, counterexample = _ideal_products(z, _NOVIKOV)
    if counterexample:
        return _fails(counterexample)
    A = z.algebra
    for kind in SeriesKind:
        terms = compute_series(A, kind).terms
        for power, term in enumerate(terms, start=1):
            if not is_ideal(A, term):
                return _fails(
                    {
                        "problem": "series term is not an ideal",
                        "series": kind.value,
                        "power": power,
                        "term": term,
                    }
                )
    counterexample = _annihilator_failure(A, ideal_list)
    if counterexample:
        return _fails(counterexample)
    return _holds(
        {
            "ideal_pairs": len(ideal_list) ** 2,
            "series_terms": True,
            "annihilators": len(ideal_list),
        }
    )


@_check(CheckId.NILPOTENT_MAX_SUBALG_IDEAL, "maximal subalgebras of a nilpotent algebra are ideals")
def check_nilpotent_max_subalg_ideal(z):
    _require(z.profile().nilpotent, "requires a nilpotent algebra")
    A = z.algebra
    maximals = z.maximal_subalgebras()
    for m in maximals:
        if not is_ideal(A, m):
            return _fails({"problem": "maximal subalgebra is not an ideal", "subalgebra": m})
    return _holds({"maximal_subalgebras": len(maximals)})


@_check(CheckId.PHI_EQ_ASQ_NILPOTENT, "Frattini subalgebra = Frattini ideal = square for nilpotent algebras")
def check_phi_eq_asq_nilpotent(z):
    _require(z.profile().nilpotent, "requires a nilpotent algebra")
    phi = z.phi()
    frat = z.frattini_subalgebra()
    square = z.square()
    if phi == frat == square:
        return _holds({"phi": phi, "square": square})
    return _fails(
        {
            "problem": "Frattini data differs from the square",
            "phi": phi,
            "frattini_subalgebra": frat,
            "square": square,
        }
    )


@_check(CheckId.WEAKLY_NILPOTENT_IMPLIES_NILPOTENT, "weakly nilpotent implies nilpotent, with 1-dimensional chief factors")
def check_weakly_nilpotent_implies_nilpotent(z):
    prof = z.profile()
    _require(
        prof.right_nilpotent and prof.left_nilpotent,
        "requires a weakly nilpotent algebra",
    )
    A = z.algebra
    require_ideal_products(z)
    if not prof.nilpotent:
        return _fails(
            {
                "problem": "weakly nilpotent but not nilpotent",
                "right_index": prof.right_index,
                "left_index": prof.left_index,
            }
        )
    witness = {"nilpotent_index": prof.nilpotent_index}
    if A.field.is_finite:
        dims = []
        chain = z.chief_series_ideals()
        for below, above in zip(chain, chain[1:]):
            dims.append(above.dim - below.dim)
        witness["chief_factor_dims"] = tuple(dims)
        if any(d != 1 for d in dims):
            return _fails(
                {
                    "problem": "chief factor of a nilpotent algebra with dimension > 1",
                    "chief_factor_dims": tuple(dims),
                }
            )
    else:
        z.note("chief factor dimensions not checked (needs enumeration)")
    return _holds(witness)


@_check(CheckId.CHIEF_FACTOR_ANNIHILATED, "chief factors are annihilated by the one-sided nilradicals")
def check_chief_factor_annihilated(z):
    _require(has_natural_identity(z), "requires a natural identity class")
    right_nil = z.radical(RadicalKind.RIGHT_NIL)
    left_nil = z.radical(RadicalKind.LEFT_NIL)
    chain = z.chief_series_ideals()
    for index, (below, above) in enumerate(zip(chain, chain[1:])):
        for side, product in (
            ("right", z.prod(above, right_nil)),
            ("left", z.prod(left_nil, above)),
        ):
            if not below.contains_subspace(product):
                return _fails(
                    {
                        "problem": f"chief factor not annihilated by the {side} nilradical",
                        "factor_index": index,
                        "product": product,
                        "below": below,
                    }
                )
    return _holds({"factors": len(chain) - 1})


@_check(CheckId.DT1_ASQ_COMM_ASSOC, "the square of a bicommutative algebra is commutative and associative")
def check_dt1_asq_comm_assoc(z):
    _require(z.identity(IdentityKind.BICOMMUTATIVE), "requires a bicommutative algebra")
    A = z.algebra
    square = z.square()
    sq_alg, emb = restrict(A, square)
    for kind in (IdentityKind.COMMUTATIVE, IdentityKind.ASSOCIATIVE):
        counterexample = _identity_counterexample(
            sq_alg, kind, f"square is not {kind.value}", square_basis=emb
        )
        if counterexample:
            return _fails(counterexample)
    return _holds({"square": square})


@_check(CheckId.SOLVABLE_BICOMM_ASQ_NILPOTENT, "solvable bicommutative algebras have a nilpotent square")
def check_solvable_bicomm_asq_nilpotent(z):
    _require(z.identity(IdentityKind.BICOMMUTATIVE), "requires a bicommutative algebra")
    prof = z.profile()
    one_sided = prof.right_nilpotent or prof.left_nilpotent
    _require(
        prof.solvable or one_sided,
        "requires a solvable (or one-sidedly nilpotent) algebra",
    )
    square_prof = z.profile(z.square())
    if not square_prof.nilpotent:
        return _fails(
            {
                "problem": "square is not nilpotent",
                "square": z.square(),
                "solvable": prof.solvable,
            }
        )
    if one_sided and not prof.solvable:
        return _fails(
            {
                "problem": "one-sidedly nilpotent but not solvable",
                "right_index": prof.right_index,
                "left_index": prof.left_index,
            }
        )
    return _holds({"square_nilpotent_index": square_prof.nilpotent_index})


@_check(CheckId.AR_RA_NILPOTENT_BICOMM, "A*R and R*A are nilpotent ideals (bicommutative)")
def check_ar_ra_nilpotent_bicomm(z):
    _require(z.identity(IdentityKind.BICOMMUTATIVE), "requires a bicommutative algebra")
    A = z.algebra
    rad = z.radical(RadicalKind.SOLVABLE)
    full = A.full_space()
    for name, product in (("A*R", z.prod(full, rad)), ("R*A", z.prod(rad, full))):
        if not is_ideal(A, product):
            return _fails({"problem": f"{name} is not an ideal", "product": product})
        if not z.profile(product).nilpotent:
            return _fails({"problem": f"{name} is not nilpotent", "product": product})
    return _holds({"radical": rad})


@_check(CheckId.FITTING_SUBALGEBRA, "one-sided Fitting components are subalgebras")
def check_fitting_subalgebra(z):
    sides = [label for _, label in _commutative_orientations(z)]
    A = z.algebra
    count = 0
    for side in sides:
        for vec in z.element_stream():
            component = fitting_component(A, vec, side)
            if not is_subalgebra(A, component):
                return _fails(
                    {
                        "problem": "one-sided Fitting component is not a subalgebra",
                        "side": side,
                        "element": vec,
                        "component": component,
                    }
                )
            count += 1
    return _holds({"elements_checked": count, "sides": tuple(sides)})


def _relative_right_nilpotent(z, sub, mod):
    term = sub
    for _ in range(z.algebra.dim + 1):
        if mod.contains_subspace(term):
            return True
        term = z.prod(term, sub)
    return mod.contains_subspace(term)


@_check(CheckId.FACTOR_ACTS_NILPOTENTLY, "subideals nilpotent modulo a Frattini piece act nilpotently")
def check_factor_acts_nilpotently(z):
    orientations = _commutative_orientations(z)
    z.note("subideal quantification restricted to chief series terms")
    tested = 0
    for view, label in orientations:
        A = view.algebra
        phi = view.phi()
        for b in view.chief_series_ideals():
            if b.is_zero():
                continue
            c = subspace_intersect(phi, b)
            if not (
                c.contains_subspace(view.prod(b, c))
                and c.contains_subspace(view.prod(c, b))
            ):
                continue
            if not _relative_right_nilpotent(view, b, c):
                continue
            for vec in view.element_stream(b):
                if not acts_nilpotently(A, vec, "right"):
                    return _fails(
                        {
                            "problem": "element of the subideal does not act nilpotently",
                            "orientation": label,
                            "element": vec,
                            "subideal": b,
                        }
                    )
                if not is_right_nil(A, vec):
                    return _fails(
                        {
                            "problem": "element of the subideal is not one-sidedly nil",
                            "orientation": label,
                            "element": vec,
                            "subideal": b,
                        }
                    )
                tested += 1
    return _holds({"elements_checked": tested})


@_check(CheckId.PHI_RIGHT_NIL, "Frattini elements are one-sidedly nil")
def check_phi_right_nil(z):
    orientations = _commutative_orientations(z)
    count = 0
    for view, label in orientations:
        phi = view.phi()
        for vec in view.element_stream(phi):
            if not is_right_nil(view.algebra, vec):
                return _fails(
                    {
                        "problem": "Frattini element is not one-sidedly nil",
                        "orientation": label,
                        "element": vec,
                    }
                )
            count += 1
    return _holds({"elements_checked": count})


@_check(CheckId.PHI_NILPOTENT_BICOMM, "the Frattini ideal of a bicommutative algebra is nilpotent")
def check_phi_nilpotent_bicomm(z):
    _require(z.identity(IdentityKind.BICOMMUTATIVE), "requires a bicommutative algebra")
    return _phi_nilpotent(z)


@_check(CheckId.MIN1_MINIMAL_IDEAL_SIDES, "minimal ideals annihilate the radical on one side")
def check_min1_minimal_ideal_sides(z):
    _require(z.identity(IdentityKind.BICOMMUTATIVE), "requires a bicommutative algebra")
    rad = z.radical(RadicalKind.SOLVABLE)
    rad_sq = z.prod(rad, rad)
    for b in z.minimal_ideals():
        rb = z.prod(rad, b)
        br = z.prod(b, rad)
        first = rb.is_zero() and z.prod(b, rad_sq).is_zero()
        second = br.is_zero() and z.prod(rad_sq, b).is_zero()
        if not (first or second):
            return _fails(
                {
                    "problem": "minimal ideal fails both annihilation patterns",
                    "minimal_ideal": b,
                    "R*B": rb,
                    "B*R": br,
                }
            )
    return _holds({"minimal_ideals": len(z.minimal_ideals()), "radical": rad})


@_check(CheckId.BIMAX_RIGHT_NILPOTENT, "one-sidedly nilpotent bicommutative: maximals are one-sided ideals, cube in phi")
def check_bimax_right_nilpotent(z):
    _require(z.identity(IdentityKind.BICOMMUTATIVE), "requires a bicommutative algebra")
    prof = z.profile()
    views = _orientations(
        z,
        prof.right_nilpotent,
        prof.left_nilpotent,
        "requires a one-sidedly nilpotent algebra",
    )
    for view, label in views:
        A = view.algebra
        phi = view.phi()
        cube = view.prod(view.square(), A.full_space())
        if not phi.contains_subspace(cube):
            return _fails(
                {
                    "problem": "third right power is not inside the Frattini ideal",
                    "orientation": label,
                    "cube": cube,
                    "phi": phi,
                }
            )
        for m in view.maximal_subalgebras():
            if not is_left_ideal(A, m):
                return _fails(
                    {
                        "problem": "maximal subalgebra is not a one-sided ideal",
                        "orientation": label,
                        "subalgebra": m,
                    }
                )
    return _holds({"orientations": tuple(label for _, label in views)})


def _check_ann_subalgebras(z, class_kinds, class_name):
    _require(
        any(z.identity(k) for k in class_kinds), f"requires a {class_name} algebra"
    )
    A = z.algebra
    subs = z.subalgebras()
    for b in subs:
        for name, value in (("idealizer", idealizer(A, b)), ("annihilator", annihilator(A, b))):
            if not is_subalgebra(A, value):
                return _fails(
                    {
                        "problem": f"{name} of a subalgebra is not a subalgebra",
                        "subalgebra": b,
                        name: value,
                    }
                )
    ideal_list = z.ideals()
    counterexample = _annihilator_failure(A, ideal_list)
    if counterexample:
        return _fails(counterexample)
    return _holds({"subalgebras": len(subs), "ideals": len(ideal_list)})


@_check(CheckId.BIANN_SUBALGEBRAS, "idealizers and annihilators are subalgebras (bicommutative)")
def check_biann_subalgebras(z):
    return _check_ann_subalgebras(z, (IdentityKind.BICOMMUTATIVE,), "bicommutative")


@_check(CheckId.MINIMAL_IDEAL_ZERO_OR_SIMPLE, "minimal ideals square to zero or are simple")
def check_minimal_ideal_zero_or_simple(z):
    _require(
        any(z.identity(k) for k in (IdentityKind.BICOMMUTATIVE, *_NOVIKOV)),
        "requires a bicommutative or Novikov algebra",
    )
    A = z.algebra
    for b in z.minimal_ideals():
        square = z.prod(b, b)
        if square.is_zero():
            continue
        if square != b:
            # B*B is an ideal of the subalgebra B, so a simple B must equal it
            return _fails(
                {
                    "problem": "minimal ideal with nonzero square is not simple",
                    "minimal_ideal": b,
                    "square": square,
                }
            )
        bad = simplicity_failure(z, b)
        if bad:
            return _fails(
                {
                    "problem": "minimal ideal with nonzero square is not simple",
                    "minimal_ideal": b,
                    **bad,
                }
            )
    return _holds({"minimal_ideals": len(z.minimal_ideals())})


@_check(CheckId.SS_IDEALS_IN_ASQ, "semisimple: ideals inside the square are sums of simple minimal ideals")
def check_ss_ideals_in_asq(z):
    _require(z.identity(IdentityKind.BICOMMUTATIVE), "requires a bicommutative algebra")
    rad = z.radical(RadicalKind.SOLVABLE)
    _require(rad.is_zero(), "requires a semisimple algebra")
    A = z.algebra
    square = z.square()
    mins = z.minimal_ideals()
    for b in z.ideals():
        if b.is_zero() or not square.contains_subspace(b):
            continue
        parts = [m for m in mins if b.contains_subspace(m)]
        if not direct_sum_equals(A.field, A.dim, parts, b):
            return _fails(
                {
                    "problem": "ideal inside the square is not a direct sum of minimal ideals",
                    "ideal": b,
                    "minimal_parts": parts,
                }
            )
        for m in parts:
            bad = simplicity_failure(z, m)
            if bad:
                return _fails(
                    {
                        "problem": "summand of an ideal inside the square is not simple",
                        "ideal": b,
                        **bad,
                    }
                )
    return _holds({"square": square})


@_check(CheckId.BISS_DECOMPOSITION, "semisimple bicommutative splits as simples plus a square-zero complement")
def check_biss_decomposition(z):
    dec = semisimple_decomposition(z)
    return _holds(
        {"simples": dec.simples, "complement": dec.complement, "action_pattern": dec.action_pattern}
    )


def _require_assosymmetric(z):
    _require(z.identity(IdentityKind.ASSOSYMMETRIC), "requires an assosymmetric algebra")
    field = z.algebra.field
    _require(
        not (field.is_finite and field.order in (2, 3)),
        "not applicable in characteristic 2 or 3",
    )


@_check(CheckId.KLEINFELD_SEMISIMPLE_ASSOCIATIVE, "assosymmetric with no zero ideals is associative")
def check_kleinfeld_semisimple_associative(z):
    _require_assosymmetric(z)
    zsoc = z.zero_socle()
    _require(zsoc.is_zero(), "requires an algebra with no nonzero zero ideals")
    counterexample = _identity_counterexample(
        z.algebra, IdentityKind.ASSOCIATIVE, "not associative"
    )
    if counterexample:
        return _fails(counterexample)
    return _holds({"associative": True})


@_check(CheckId.ASSOSYM_SOLVABLE_IS_NILPOTENT, "solvable assosymmetric algebras are nilpotent")
def check_assosym_solvable_is_nilpotent(z):
    _require_assosymmetric(z)
    prof = z.profile()
    _require(prof.solvable, "requires a solvable algebra")
    if not prof.nilpotent:
        return _fails(
            {
                "problem": "solvable but not nilpotent",
                "solvable_index": prof.solvable_index,
            }
        )
    return _holds({"nilpotent_index": prof.nilpotent_index})


@_check(CheckId.ASSOSYM_QUOTIENT_ASSOCIATIVE, "assosymmetric quotient by the nilradical is associative")
def check_assosym_quotient_associative(z):
    _require_assosymmetric(z)
    nil = z.radical(RadicalKind.NIL)
    q_alg, _ = quotient(z.algebra, nil)
    counterexample = _identity_counterexample(
        q_alg,
        IdentityKind.ASSOCIATIVE,
        "quotient by the nilradical is not associative",
        indices_key="quotient_basis_indices",
    )
    if counterexample:
        return _fails(counterexample)
    return _holds({"nilradical": nil, "quotient_dim": q_alg.dim})


@_check(CheckId.ASSOSYM_PHI_NILPOTENT, "the Frattini ideal of an assosymmetric algebra is nilpotent")
def check_assosym_phi_nilpotent(z):
    _require_assosymmetric(z)
    return _phi_nilpotent(z)


def _novikov_view(z):
    if z.identity(IdentityKind.NOVIKOV_LEFT):
        return z
    if z.identity(IdentityKind.NOVIKOV_RIGHT):
        z.note("mirrored orientation: products analyzed in the opposite algebra")
        return z.mirrored()
    raise _NotApplicable("requires a Novikov algebra")


@_check(CheckId.NOVIKOV_EQUIVALENCES, "right nilpotent = square nilpotent = solvable (Novikov)")
def check_novikov_equivalences(z):
    view = _novikov_view(z)
    prof = view.profile()
    square_prof = view.profile(view.square())
    conditions = {
        "right_nilpotent": prof.right_nilpotent,
        "square_nilpotent": square_prof.nilpotent,
        "solvable": prof.solvable,
    }
    values = set(conditions.values())
    if len(values) != 1:
        return _fails({"problem": "equivalent conditions disagree", **conditions})
    return _holds(conditions)


@_check(CheckId.LEFT_NILPOTENT_NOVIKOV_NILPOTENT, "left nilpotent Novikov algebras are nilpotent")
def check_left_nilpotent_novikov_nilpotent(z):
    view = _novikov_view(z)
    prof = view.profile()
    _require(prof.left_nilpotent, "requires a left nilpotent algebra")
    if not prof.nilpotent:
        return _fails(
            {
                "problem": "left nilpotent but not nilpotent",
                "left_index": prof.left_index,
            }
        )
    return _holds({"nilpotent_index": prof.nilpotent_index})


@_check(CheckId.NOVIKOV_SOLVABLE_PHI_NILPOTENT, "solvable Novikov: the Frattini ideal is nilpotent")
def check_novikov_solvable_phi_nilpotent(z):
    view = _novikov_view(z)
    _require(view.profile().solvable, "requires a solvable algebra")
    return _phi_nilpotent(view)


@_check(CheckId.NOVAR_AR_NILPOTENT, "A*R is a nilpotent ideal (Novikov)")
def check_novar_ar_nilpotent(z):
    view = _novikov_view(z)
    A = view.algebra
    rad = view.radical(RadicalKind.SOLVABLE)
    product = view.prod(A.full_space(), rad)
    if not is_ideal(A, product):
        return _fails({"problem": "A*R is not an ideal", "product": product})
    prof = view.profile(product)
    if not prof.nilpotent:
        return _fails({"problem": "A*R is not nilpotent", "product": product})
    return _holds({"product": product, "nilpotent_index": prof.nilpotent_index})


@_check(CheckId.NOVIKOV_ANN_SUBALGEBRAS, "idealizers and annihilators are subalgebras (Novikov)")
def check_novikov_ann_subalgebras(z):
    return _check_ann_subalgebras(z, _NOVIKOV, "Novikov")


@_check(CheckId.SPLIT_IFF_PHI_FREE, "phi-free if and only if the algebra splits over its zero socle")
def check_split_iff_phi_free(z):
    phi = z.phi()
    _require(z.profile(phi).nilpotent, "requires a nilpotent Frattini ideal")
    zsoc, comp = zero_socle_split(z, phi)
    if comp is None:
        return _holds({"zero_socle": zsoc, "phi": phi, "phi_free": False})
    return _holds({"zero_socle": zsoc, "complement": comp, "phi_free": True})


@_check(CheckId.T_SOCLE_EQUALITIES, "phi-free: zero socle = nilradical = annihilator of the socle")
def check_t_socle_equalities(z):
    _require(
        has_natural_identity(z),
        "requires a bicommutative, assosymmetric or Novikov algebra",
    )
    phi = z.phi()
    _require(phi.is_zero(), "requires a phi-free algebra")
    zsoc = z.zero_socle()
    nil = z.radical(RadicalKind.NIL)
    ann = annihilator(z.algebra, z.socle())
    if zsoc == nil == ann:
        return _holds({"zero_socle": zsoc})
    return _fails(
        {
            "problem": "zero socle, nilradical and socle annihilator differ",
            "zero_socle": zsoc,
            "nilradical": nil,
            "socle_annihilator": ann,
        }
    )


@_check(CheckId.BIPHIFREE_STRUCTURE, "phi-free bicommutative structure decomposition")
def check_biphifree_structure(z):
    _require(z.identity(IdentityKind.BICOMMUTATIVE), "requires a bicommutative algebra")
    phi = z.phi()
    zsoc, comp, extras = bicommutative_split(z, phi)
    if comp is None:
        return _holds({"phi": phi, "phi_free": False})
    witness = {
        "zero_socle": zsoc,
        "complement": comp,
        "zero_part": extras.zero_part,
        "semisimple_part": extras.semisimple_part,
        "semisimple_square": extras.square,
        "socle_killing_radical": extras.socle_killing_radical,
        "radical_killing_socle": extras.radical_killing_socle,
    }
    if extras.simples is not None:
        witness["simples"] = extras.simples
        witness["simple_complement"] = extras.simple_complement
    return _holds(witness)


@_check(CheckId.PHIFREE_NOVIKOV, "phi-free Novikov: the algebra annihilates the complement-radical overlap")
def check_phifree_novikov(z):
    view = _novikov_view(z)
    phi = view.phi()
    _require(phi.is_zero(), "requires a phi-free algebra")
    zsoc, comp = zero_socle_split(view, phi)
    overlap = novikov_refinement(view, comp).overlap
    return _holds({"zero_socle": zsoc, "complement": comp, "overlap": overlap})


@_check(CheckId.ARR_INCLUSIONS, "(A*R)*R inside phi inside the square (Novikov)")
def check_arr_inclusions(z):
    view = _novikov_view(z)
    A = view.algebra
    rad = view.radical(RadicalKind.SOLVABLE)
    phi = view.phi()
    arr = view.prod(view.prod(A.full_space(), rad), rad)
    square = view.square()
    if not phi.contains_subspace(arr):
        return _fails(
            {"problem": "(A*R)*R is not inside the Frattini ideal", "arr": arr, "phi": phi}
        )
    if not square.contains_subspace(phi):
        return _fails(
            {"problem": "Frattini ideal is not inside the square", "phi": phi, "square": square}
        )
    return _holds({"arr": arr, "phi": phi, "square": square})


def _char0_novikov_base(z):
    """The Novikov view, its radical, Frattini ideal and radical square."""
    view = _novikov_view(z)
    _require(
        not z.algebra.field.is_finite,
        "characteristic-zero statement; not applicable over finite fields",
    )
    rad = view.radical(RadicalKind.SOLVABLE)
    phi = view.phi()
    return view, rad, phi, view.prod(rad, rad)


@_check(CheckId.CHAR0_NOVIKOV_SPLIT, "char 0 Novikov, nilpotent radical: phi-free iff zero radical plus fields")
def check_char0_novikov_split(z):
    view, rad, phi, rad_sq = _char0_novikov_base(z)
    _require(view.profile(rad).nilpotent, "requires a nilpotent radical")
    A = view.algebra
    if not phi.is_zero():
        if rad_sq.is_zero():
            return _fails(
                {
                    "problem": "nonzero Frattini ideal although the radical squares to zero",
                    "phi": phi,
                    "radical": rad,
                }
            )
        z.note("non-split direction settled via the radical square")
        return _holds({"phi": phi, "radical_square": rad_sq})
    comp = view.certified_subspace("radical_complement")
    if not is_complement(A, comp, rad, A.full_space()):
        return _fails(
            {
                "problem": "supplied complement to the radical is not a complement subalgebra",
                "complement": comp,
            }
        )
    if not rad_sq.is_zero():
        return _fails(
            {"problem": "radical is not a zero algebra", "radical_square": rad_sq}
        )
    comp_alg, emb = restrict(A, comp)
    for kind in (IdentityKind.COMMUTATIVE, IdentityKind.ASSOCIATIVE):
        if not check_identity(comp_alg, kind):
            return _fails(
                {
                    "problem": f"semisimple complement is not {kind.value}",
                    "complement": comp,
                }
            )
    witness = {"radical": rad, "complement": comp}
    if "simple_summands" in z.certified:
        summands = view.certified_subspace("simple_summands")
        if not direct_sum_equals(A.field, A.dim, summands, comp):
            return _fails(
                {
                    "problem": "summands do not sum directly to the complement",
                    "summands": summands,
                }
            )
        for s in summands:
            sq = view.prod(s, s)
            if sq != s:
                return _fails(
                    {"problem": "summand does not square to itself", "summand": s}
                )
        z.assume("simplicity of certified summands not re-verified over Q")
        witness["summands"] = summands
    else:
        z.note("field decomposition of the complement not certified; skipped")
    return _holds(witness)


@_check(CheckId.CHAR0_RAD_ZERO_ALGEBRA, "char 0 Novikov, nilpotent radical: phi-free iff the radical squares to zero")
def check_char0_rad_zero_algebra(z):
    view, rad, phi, rad_sq = _char0_novikov_base(z)
    _require(view.profile(rad).nilpotent, "requires a nilpotent radical")
    if phi.is_zero() != rad_sq.is_zero():
        return _fails(
            {
                "problem": "phi-freeness and radical-square-zero disagree",
                "phi": phi,
                "radical_square": rad_sq,
            }
        )
    return _holds({"phi_free": phi.is_zero(), "radical_square_zero": rad_sq.is_zero()})


@_check(CheckId.CHAR0_PHI_IN_RSQ, "char 0 Novikov: phi inside the radical square, and nilpotent")
def check_char0_phi_in_rsq(z):
    view, rad, phi, rad_sq = _char0_novikov_base(z)
    if not rad_sq.contains_subspace(phi):
        return _fails(
            {
                "problem": "Frattini ideal is not inside the radical square",
                "phi": phi,
                "radical_square": rad_sq,
            }
        )
    prof = view.profile(phi)
    if not prof.nilpotent:
        return _fails({"problem": "Frattini ideal is not nilpotent", "phi": phi})
    return _holds({"phi": phi, "radical_square": rad_sq})


@_check(CheckId.CHAR0_PHI_EQ_RSQ, "char 0 Novikov, nilpotent radical: phi equals the radical square")
def check_char0_phi_eq_rsq(z):
    view, rad, phi, rad_sq = _char0_novikov_base(z)
    _require(view.profile(rad).nilpotent, "requires a nilpotent radical")
    if phi != rad_sq:
        return _fails(
            {
                "problem": "Frattini ideal differs from the radical square",
                "phi": phi,
                "radical_square": rad_sq,
            }
        )
    return _holds({"phi": phi})


@_check(CheckId.A3_NOVIKOV_IFF_BICOMM, "vanishing cube: Novikov if and only if bicommutative")
def check_a3_novikov_iff_bicomm(z):
    A = z.algebra
    full = A.full_space()
    square = z.square()
    sides = []
    if z.prod(square, full).is_zero():
        sides.append((IdentityKind.NOVIKOV_LEFT, "right"))
    if z.prod(full, square).is_zero():
        sides.append((IdentityKind.NOVIKOV_RIGHT, "left"))
    _require(sides, "requires a vanishing third power on at least one side")
    for kind, label in sides:
        nov = z.identity(kind)
        bic = z.identity(IdentityKind.BICOMMUTATIVE)
        if nov != bic:
            return _fails(
                {
                    "problem": "Novikov and bicommutative disagree under a vanishing cube",
                    "cube_side": label,
                    kind.value: nov,
                    "bicommutative": bic,
                }
            )
    return _holds({"sides": tuple(label for _, label in sides)})


@_check(CheckId.NOVMAX_IMPLICATIONS, "right nilpotent => cube in phi => maximals are left ideals (Novikov)")
def check_novmax_implications(z):
    view = _novikov_view(z)
    A = view.algebra
    prof = view.profile()
    phi = view.phi()
    cube = view.prod(view.square(), A.full_space())
    cond_i = prof.right_nilpotent
    cond_ii = phi.contains_subspace(cube)
    maximals = view.maximal_subalgebras()
    cond_iii = all(is_left_ideal(A, m) for m in maximals)
    if cond_i and not cond_ii:
        return _fails(
            {
                "problem": "right nilpotent but the third power is not inside phi",
                "cube": cube,
                "phi": phi,
            }
        )
    if cond_ii and not cond_iii:
        bad = next(m for m in maximals if not is_left_ideal(A, m))
        return _fails(
            {
                "problem": "third power inside phi but a maximal subalgebra is not a left ideal",
                "subalgebra": bad,
            }
        )
    return _holds(
        {"right_nilpotent": cond_i, "cube_in_phi": cond_ii, "maximals_left_ideals": cond_iii}
    )


@_check(CheckId.SOLVABLE_BICOMM_A3_IFF_LEFT_IDEALS, "solvable bicommutative: cube in phi iff maximals are left ideals")
def check_solvable_bicomm_a3_iff_left_ideals(z):
    _require(z.identity(IdentityKind.BICOMMUTATIVE), "requires a bicommutative algebra")
    _require(z.profile().solvable, "requires a solvable algebra")
    A = z.algebra
    phi = z.phi()
    cube = z.prod(z.square(), A.full_space())
    lhs = phi.contains_subspace(cube)
    maximals = z.maximal_subalgebras()
    rhs = all(is_left_ideal(A, m) for m in maximals)
    if lhs != rhs:
        return _fails(
            {
                "problem": "cube-in-phi and maximals-left-ideals disagree",
                "cube_in_phi": lhs,
                "maximals_left_ideals": rhs,
                "cube": cube,
                "phi": phi,
            }
        )
    return _holds({"cube_in_phi": lhs, "maximals_left_ideals": rhs})


def _run_check(analyzer, check):
    analyzer.begin_check()
    reason = None
    try:
        holds, witness, counterexample = _CHECK_FUNCS[check](analyzer)
    except TheoremViolationError as e:
        holds, witness, counterexample = _fails({"problem": str(e), **e.details})
    except (_NotApplicable, UnsupportedOperationError, PreconditionError) as e:
        holds = witness = counterexample = None
        reason = str(e)
    assumed, notes = analyzer.snapshot()
    return VerificationReport(
        check=check,
        applicable=reason is None,
        holds=holds,
        reason=reason,
        witness=witness,
        counterexample=counterexample,
        assumed=assumed,
        notes=notes,
    )


def verify(A: Algebra, check, certified=None, budget=DEFAULT_BUDGET) -> VerificationReport:
    """Run one catalogued check against the algebra."""
    check = CheckId(check)
    analyzer = Analyzer(A, certified, budget)
    return _run_check(analyzer, check)


def verify_all(A: Algebra, certified=None, budget=DEFAULT_BUDGET):
    """Run every catalogued check, sharing cached computations."""
    analyzer = Analyzer(A, certified, budget)
    return [_run_check(analyzer, check) for check in CheckId]


def bracket_power_oracle(A: Algebra, n: int) -> Subspace:
    """Span of all fully parenthesized products of n basis elements.

    Independent oracle for the two-sided power series: association trees are
    enumerated explicitly, so the cost grows with the Catalan numbers and n
    is capped at 6.
    """
    if n < 1:
        raise UsageError("power must be at least 1")
    if n > 6:
        raise BudgetExceededError("tree enumeration is capped at 6 factors")
    levels = {1: tuple(dict.fromkeys(A.basis_vectors()))}
    for m in range(2, n + 1):
        values = {}
        for i in range(1, m):
            for u in levels[i]:
                for v in levels[m - i]:
                    values[A.multiply(u, v)] = None
        levels[m] = tuple(values)
    return span(A.field, A.dim, levels[n])
