"""Decomposition builders for the structure theory of the supported classes.

Each builder reads its facts from an `Analyzer`, the provider the verifier's
checks read as well, and each check that states one of these theorems calls
its builder, so every decomposition is derived in one place:

* zero_socle_split: a phi-free algebra splits over its zero socle; when the
  Frattini ideal is nonzero, no complement exists.
* semisimple_decomposition: a semisimple bicommutative algebra S splits as
  S = S^2 (+) U where S^2 is the direct sum of simple minimal ideals and U is
  a square-zero complement subalgebra.
* bicommutative_split and novikov_refinement: the refinement pieces of a
  phi-free split for bicommutative and Novikov algebras.

Over F_p a complement is the first in canonical subspace order, so results
are reproducible; over Q the builders read certified complements and skip
the fine structure of the semisimple part.  A decomposition the theory
guarantees but the input lacks raises TheoremViolationError: either an
implementation bug or a genuine counterexample, never ignored.

The public phi_free_split and decompose_semisimple_bicommutative run the
builders on an Analyzer of their own and require a finite field.
"""

import itertools
from dataclasses import dataclass

from .errors import PreconditionError, TheoremViolationError, UnsupportedOperationError
from .linalg import Echelon, Subspace, span, subspace_intersect, subspace_sum
from .algebra import (
    Algebra,
    IdentityKind,
    check_identity,
    is_ideal,
    is_subalgebra,
    quotient,
    restrict,
    subspace_product,
)
from .series import nilpotency_profile
from .enumeration import (
    DEFAULT_BUDGET,
    NATURAL_CLASSES,
    RadicalKind,
    find_complement_subalgebra,  # noqa: F401  (traced under this name)
    frattini,
    ideals,
    is_semisimple,
    radical,
)
from .analyzer import Analyzer


@dataclass(frozen=True)
class SemisimpleBicommutativeDecomposition:
    """S = square (+) complement with square = direct sum of the simples.

    action_pattern[i] is a pair of booleans (simple_times_complement_zero,
    complement_times_simple_zero); at least one is always True.
    """

    simples: tuple
    complement: Subspace
    square: Subspace
    action_pattern: tuple


@dataclass(frozen=True)
class BicommutativeSplitExtras:
    """Refinement of a phi-free bicommutative split.

    The complement C decomposes as zero_part (+) semisimple_part where
    zero_part = C intersect radical squares to zero, and the two pieces
    annihilate each other.  The semisimple part then decomposes like any
    semisimple bicommutative algebra (simples, simple_complement and
    action_pattern; None over Q, where that is not computed).  The zero socle
    splits into the part that annihilates the radical from the left
    (socle_killing_radical, Z*R = 0) and the part the radical annihilates
    (radical_killing_socle, R*Z = 0).
    """

    radical: Subspace
    zero_part: Subspace
    semisimple_part: Subspace
    square: Subspace
    simples: tuple
    simple_complement: Subspace
    action_pattern: tuple
    socle_killing_radical: Subspace
    radical_killing_socle: Subspace


@dataclass(frozen=True)
class NovikovSplitExtras:
    """Witness that the whole algebra annihilates C intersect R.

    For the left orientation the verified product is A*(C&R); for the
    mirrored orientation it is (C&R)*A.
    """

    radical: Subspace
    overlap: Subspace
    product: Subspace
    orientation: str


@dataclass(frozen=True)
class PhiFreeSplit:
    zero_socle: Subspace
    complement: Subspace
    bicommutative: BicommutativeSplitExtras | None
    novikov: NovikovSplitExtras | None


@dataclass(frozen=True)
class AssosymmetricReport:
    applicable: bool
    reason: str | None
    semisimple: bool | None
    semisimple_associative: bool | None
    quotient_by_nilradical_associative: bool | None
    notes: tuple


@dataclass(frozen=True)
class NovikovRadicalReport:
    radical: Subspace
    product_with_radical: Subspace
    product_is_ideal: bool
    product_nilpotent: bool
    arr_in_phi: bool
    phi_in_square: bool
    phi: Subspace


def _require_finite_field(A, what):
    if not A.field.is_finite:
        raise PreconditionError("finite field", f"{what} requires a finite field")


def direct_sum_equals(field, ambient, parts, whole):
    """Do the parts sum directly (dims add) to exactly `whole`?"""
    ech = Echelon(field, ambient)
    total = 0
    for p in parts:
        ech.add_subspace(p)
        total += p.dim
    return total == ech.dim and ech.subspace() == whole


def lift_subspace(field, ambient, embedding_rows, sub):
    """Map a subspace given in restricted coordinates back to ambient ones."""
    vectors = []
    for row in sub.basis:
        vec = [field.zero] * ambient
        for c, emb in zip(row, embedding_rows):
            if c != field.zero:
                for i, e in enumerate(emb):
                    if e != field.zero:
                        vec[i] = field.add(vec[i], field.mul(c, e))
        vectors.append(tuple(vec))
    return span(field, ambient, vectors)


def action_sides(A, left, right):
    """(left*right == 0, right*left == 0) as a pair of booleans."""
    return (
        subspace_product(A, left, right).is_zero(),
        subspace_product(A, right, left).is_zero(),
    )


def is_complement(A, comp, sub, whole):
    """Is `comp` a subalgebra with comp & sub = 0 and comp + sub = whole?"""
    return (
        comp is not None
        and is_subalgebra(A, comp)
        and subspace_intersect(comp, sub).is_zero()
        and subspace_sum(comp, sub) == whole
    )


def simplicity_failure(z, m):
    """Counterexample entries showing the ideal `m` is not simple, or None.

    Decided over F_p, where a simple algebra has a nonzero square and no
    proper nonzero ideal of itself; over Q only m*m = m is tested and
    simplicity assumed.
    """
    A = z.algebra
    if not A.field.is_finite:
        if z.prod(m, m) != m:
            return {"summand": m}
        z.assume("simplicity of certified minimal ideals not re-verified over Q")
        return None
    if z.prod(m, m).is_zero():
        return {"detail": {"problem": "square is zero", "subspace": m}}
    m_alg, emb = restrict(A, m)
    for i in ideals(m_alg, z.budget):
        if 0 < i.dim < m_alg.dim:
            ideal = lift_subspace(A.field, A.dim, emb, i)
            return {"detail": {"problem": "proper nonzero ideal", "subspace": m, "ideal": ideal}}
    return None


def split_zero_socle_by_radical(A, zero_ideals, rad):
    """Sort minimal zero ideals by which side the radical annihilates.

    Returns (socle_killing_radical, radical_killing_socle, violation) where
    the first collects ideals Z with Z*rad = 0 (including both-sided zeros)
    and the second those with rad*Z = 0 only.  `violation` is a dict when
    some ideal is annihilated on neither side, which the theory forbids.
    """

    left = Echelon(A.field, A.dim)
    right = Echelon(A.field, A.dim)
    for z in zero_ideals:
        if subspace_product(A, z, rad).is_zero():
            left.add_subspace(z)
        elif subspace_product(A, rad, z).is_zero():
            right.add_subspace(z)
        else:
            return None, None, {"problem": "zero ideal annihilated on neither side", "subspace": z}
    return left.subspace(), right.subspace(), None


def has_natural_identity(z):
    return any(z.identity(k) for k in NATURAL_CLASSES)


def require_ideal_products(z):
    """Refuse unless products of ideals are ideals: true in a natural
    identity class, and tested by enumeration over F_p otherwise."""
    if has_natural_identity(z):
        return
    if z.algebra.field.is_finite:
        for left, right in itertools.product(z.ideals(), repeat=2):
            if not is_ideal(z.algebra, z.prod(left, right)):
                raise PreconditionError(
                    "ideal products", "products of ideals are not all ideals, so the hypothesis fails"
                )
        z.note("ideal-product hypothesis verified by enumeration")
        return
    raise PreconditionError(
        "ideal products",
        "requires a natural identity class or a finite field to test the "
        "ideal-product hypothesis",
    )


def zero_socle_split(z, phi):
    """The zero socle Z of the analyzer's algebra and a subalgebra complement C.

    Given the Frattini ideal `phi`: when it is zero, the algebra splits over
    Z and (Z, C) is returned.  When `phi` is nonzero and nilpotent, no
    complement may exist: a split forces phi = 0 because the minimal ideals
    inside a nilpotent Frattini ideal are zero ideals, which needs products
    of ideals to be ideals (refused here when they are not).  The search
    must then come up empty, and (Z, None) is returned.
    """
    A = z.algebra
    zsoc = z.zero_socle()
    if phi.is_zero():
        comp = z.complement(zsoc, "zero_socle_complement")
        if not is_complement(A, comp, zsoc, A.full_space()):
            raise TheoremViolationError(
                "phi-free algebra does not split over its zero socle",
                {"zero_socle": zsoc, "complement": comp},
            )
        return zsoc, comp
    require_ideal_products(z)
    if not A.field.is_finite:
        raise UnsupportedOperationError("requires a finite field to verify that no split exists")
    comp = z.complement(zsoc, "zero_socle_complement")
    if comp is not None:
        raise TheoremViolationError(
            "algebra with nonzero Frattini ideal splits over its zero socle",
            {"phi": phi, "zero_socle": zsoc, "complement": comp},
        )
    return zsoc, None


def semisimple_decomposition(z):
    """Split a semisimple bicommutative algebra as simples plus a square-zero complement."""
    if not z.identity(IdentityKind.BICOMMUTATIVE):
        raise PreconditionError("bicommutative", "requires a bicommutative algebra")
    if not z.radical(RadicalKind.SOLVABLE).is_zero():
        raise PreconditionError("semisimple", "requires a semisimple algebra")
    A = z.algebra
    square = z.square()
    simples = tuple(b for b in z.minimal_ideals() if square.contains_subspace(b))
    if not direct_sum_equals(A.field, A.dim, simples, square):
        raise TheoremViolationError(
            "minimal ideals inside the square do not sum directly to it",
            {"square": square, "simples": simples},
        )
    for b in simples:
        bad = simplicity_failure(z, b)
        if bad:
            raise TheoremViolationError("summand is not simple", bad)
    comp = z.complement(square, "square_complement")
    if not is_complement(A, comp, square, A.full_space()):
        raise TheoremViolationError(
            "no subalgebra complement to the square", {"square": square, "complement": comp}
        )
    if not z.prod(comp, comp).is_zero():
        raise TheoremViolationError("complement does not square to zero", {"complement": comp})
    pattern = []
    for b in simples:
        sides = action_sides(A, b, comp)
        if not (sides[0] or sides[1]):
            raise TheoremViolationError(
                "simple summand and complement multiply nontrivially both ways",
                {"simple": b, "complement": comp},
            )
        pattern.append(sides)
    return SemisimpleBicommutativeDecomposition(simples, comp, square, tuple(pattern))


def bicommutative_split(z, phi):
    """zero_socle_split for a bicommutative algebra, refined when phi = 0.

    Returns (zero socle, complement, BicommutativeSplitExtras); the last two
    are None when `phi` is nonzero.
    """
    A = z.algebra
    rad = z.radical(RadicalKind.SOLVABLE)
    zsoc, comp = zero_socle_split(z, phi)
    if comp is None:
        return zsoc, None, None
    zero_part = subspace_intersect(comp, rad)
    if not (
        subspace_sum(zsoc, zero_part) == rad
        and subspace_intersect(zsoc, zero_part).is_zero()
    ):
        raise TheoremViolationError(
            "radical is not zero socle plus complement overlap",
            {"radical": rad, "zero_socle": zsoc, "overlap": zero_part},
        )
    if not z.prod(zero_part, zero_part).is_zero():
        raise TheoremViolationError(
            "complement overlap does not square to zero", {"overlap": zero_part}
        )
    semi = z.complement(zero_part, "semisimple_part", inside=comp)
    if not is_complement(A, semi, zero_part, comp):
        raise TheoremViolationError(
            "complement does not split into zero part plus subalgebra",
            {"complement": comp, "zero_part": zero_part, "semisimple_part": semi},
        )
    sides = action_sides(A, zero_part, semi)
    if not (sides[0] and sides[1]):
        raise TheoremViolationError(
            "zero part and semisimple part do not annihilate each other",
            {"zero_part": zero_part, "semisimple_part": semi},
        )
    simples = simple_comp = pattern = None
    if A.field.is_finite:
        semi_alg, emb = restrict(A, semi)
        try:
            dec = decompose_semisimple_bicommutative(semi_alg, z.budget)
        except (PreconditionError, TheoremViolationError) as e:
            raise TheoremViolationError(
                "semisimple part does not decompose",
                {"semisimple_part": semi, "detail": str(e)},
            )
        simples = tuple(lift_subspace(A.field, A.dim, emb, s) for s in dec.simples)
        for s in simples:
            s_alg, _ = restrict(A, s)
            if not (
                check_identity(s_alg, IdentityKind.COMMUTATIVE)
                and check_identity(s_alg, IdentityKind.ASSOCIATIVE)
            ):
                raise TheoremViolationError(
                    "simple summand is not commutative associative", {"simple": s}
                )
        simple_comp = lift_subspace(A.field, A.dim, emb, dec.complement)
        pattern = dec.action_pattern
    else:
        z.note("fine structure of the semisimple part skipped over the rationals")
    zero_ideals = [b for b in z.minimal_ideals() if z.prod(b, b).is_zero()]
    z_left, z_right, bad = split_zero_socle_by_radical(A, zero_ideals, rad)
    if bad is not None:
        raise TheoremViolationError(bad["problem"], {"subspace": bad["subspace"]})
    if not direct_sum_equals(A.field, A.dim, [z_left, z_right], zsoc):
        raise TheoremViolationError(
            "zero socle is not the direct sum of its annihilation parts",
            {"left_part": z_left, "right_part": z_right},
        )
    extras = BicommutativeSplitExtras(
        radical=rad,
        zero_part=zero_part,
        semisimple_part=semi,
        square=z.prod(semi, semi),
        simples=simples,
        simple_complement=simple_comp,
        action_pattern=pattern,
        socle_killing_radical=z_left,
        radical_killing_socle=z_right,
    )
    return zsoc, comp, extras


def novikov_refinement(view, comp):
    """The whole algebra annihilates C & R, for a phi-free Novikov algebra
    read in its left orientation `view` (the mirrored analyzer when the
    algebra is right Novikov) and its zero-socle complement `comp`."""
    A = view.algebra
    rad = view.radical(RadicalKind.SOLVABLE)
    overlap = subspace_intersect(comp, rad)
    product = view.prod(A.full_space(), overlap)
    if not product.is_zero():
        raise TheoremViolationError(
            "algebra does not annihilate the complement-radical overlap",
            {"overlap": overlap, "product": product},
        )
    return NovikovSplitExtras(rad, overlap, product, "right" if view.is_mirror else "left")


def decompose_semisimple_bicommutative(S: Algebra, budget=DEFAULT_BUDGET):
    """Split a semisimple bicommutative algebra over F_p as simples plus a square-zero complement."""
    _require_finite_field(S, "semisimple decomposition")
    return semisimple_decomposition(Analyzer(S, budget=budget))


def phi_free_split(A: Algebra, budget=DEFAULT_BUDGET):
    """Split a phi-free algebra over F_p over its zero socle, with class-specific extras."""
    _require_finite_field(A, "phi-free splitting")
    z = Analyzer(A, budget=budget)
    phi = z.phi()
    if not phi.is_zero():
        raise PreconditionError("phi-free", "not phi-free: the Frattini ideal is nonzero")
    bic = nov = None
    if z.identity(IdentityKind.BICOMMUTATIVE):
        zsoc, comp, bic = bicommutative_split(z, phi)
    else:
        zsoc, comp = zero_socle_split(z, phi)
    if z.identity(IdentityKind.NOVIKOV_LEFT):
        nov = novikov_refinement(z, comp)
    elif z.identity(IdentityKind.NOVIKOV_RIGHT):
        nov = novikov_refinement(z.mirrored(), comp)
    return PhiFreeSplit(zsoc, comp, bic, nov)


def assosymmetric_report(A: Algebra, budget=DEFAULT_BUDGET):
    """Associativity facts for an assosymmetric algebra away from characteristic 2, 3."""
    if not check_identity(A, IdentityKind.ASSOSYMMETRIC):
        raise PreconditionError("assosymmetric")
    if A.field.is_finite and A.field.order in (2, 3):
        return AssosymmetricReport(
            applicable=False,
            reason="characteristic 2 or 3",
            semisimple=None,
            semisimple_associative=None,
            quotient_by_nilradical_associative=None,
            notes=(),
        )
    if not A.field.is_finite:
        return AssosymmetricReport(
            applicable=True,
            reason=None,
            semisimple=None,
            semisimple_associative=None,
            quotient_by_nilradical_associative=None,
            notes=("radical parts require a finite field",),
        )
    semisimple = is_semisimple(A, budget)
    ss_assoc = check_identity(A, IdentityKind.ASSOCIATIVE) if semisimple else None
    nil = radical(A, RadicalKind.NIL, budget)
    q_alg, _ = quotient(A, nil)
    q_assoc = check_identity(q_alg, IdentityKind.ASSOCIATIVE)
    return AssosymmetricReport(
        applicable=True,
        reason=None,
        semisimple=semisimple,
        semisimple_associative=ss_assoc,
        quotient_by_nilradical_associative=q_assoc,
        notes=(),
    )


def novikov_radical_report(A: Algebra, budget=DEFAULT_BUDGET):
    """Nilpotency of A*R and the Frattini inclusions for a left Novikov algebra."""
    if not check_identity(A, IdentityKind.NOVIKOV_LEFT):
        raise PreconditionError("novikov-left")
    _require_finite_field(A, "novikov radical report")
    full = A.full_space()
    rad = radical(A, RadicalKind.SOLVABLE, budget)
    prod = subspace_product(A, full, rad)
    profile = nilpotency_profile(A, prod)
    fr = frattini(A, budget)
    arr = subspace_product(A, prod, rad)
    square = subspace_product(A, full, full)
    return NovikovRadicalReport(
        radical=rad,
        product_with_radical=prod,
        product_is_ideal=is_ideal(A, prod),
        product_nilpotent=profile.nilpotent,
        arr_in_phi=fr.ideal.contains_subspace(arr),
        phi_in_square=square.contains_subspace(fr.ideal),
        phi=fr.ideal,
    )
