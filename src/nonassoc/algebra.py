"""Finite-dimensional algebras presented by structure constants.

An algebra is a table c[i][j] giving the product of basis vectors e_i e_j as
a coordinate vector.  Products of arbitrary elements extend bilinearly, so
every polynomial identity that is multilinear in its variables is checked on
basis tuples only.
"""

from __future__ import annotations

from enum import Enum

from .errors import PreconditionError, UsageError
from .linalg import Echelon, Matrix, Subspace, kernel, zero_subspace


class IdentityKind(str, Enum):
    RIGHT_COMMUTATIVE = "right-commutative"
    LEFT_COMMUTATIVE = "left-commutative"
    BICOMMUTATIVE = "bicommutative"
    LEFT_SYMMETRIC = "left-symmetric"
    RIGHT_SYMMETRIC = "right-symmetric"
    ASSOSYMMETRIC = "assosymmetric"
    NOVIKOV_LEFT = "novikov-left"
    NOVIKOV_RIGHT = "novikov-right"
    ASSOCIATIVE = "associative"
    COMMUTATIVE = "commutative"


# Conjunctions of two-variable-swap identities; the swaps generate S_3, so
# e.g. assosymmetric really does force associator invariance under all of S_3.
_COMPOSITE = {
    IdentityKind.BICOMMUTATIVE: (IdentityKind.RIGHT_COMMUTATIVE, IdentityKind.LEFT_COMMUTATIVE),
    IdentityKind.ASSOSYMMETRIC: (IdentityKind.LEFT_SYMMETRIC, IdentityKind.RIGHT_SYMMETRIC),
    IdentityKind.NOVIKOV_LEFT: (IdentityKind.LEFT_SYMMETRIC, IdentityKind.RIGHT_COMMUTATIVE),
    IdentityKind.NOVIKOV_RIGHT: (IdentityKind.RIGHT_SYMMETRIC, IdentityKind.LEFT_COMMUTATIVE),
}


class Algebra:
    """An algebra over an exact field, given by its structure-constant table."""

    __slots__ = ("field", "dim", "table", "labels")

    def __init__(self, field, dim, table, labels=None):
        if dim < 0:
            raise UsageError("dimension must be nonnegative")
        table = tuple(
            tuple(tuple(field.validate(x) for x in vec) for vec in row) for row in table
        )
        if len(table) != dim or any(
            len(row) != dim or any(len(vec) != dim for vec in row) for row in table
        ):
            raise UsageError(f"structure table must be {dim}x{dim} vectors of length {dim}")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != dim:
                raise UsageError("label count must match dimension")
            if len(set(labels)) != dim:
                raise UsageError("basis labels must be distinct")
        self.field = field
        self.dim = dim
        self.table = table
        self.labels = labels

    @classmethod
    def from_products(cls, field, dim, products, labels=None):
        """Build from a sparse {(i, j): {k: coeff}} description; absent pairs are zero."""
        zero_vec = [field.zero] * dim
        table = [[list(zero_vec) for _ in range(dim)] for _ in range(dim)]
        for (i, j), terms in products.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise UsageError(f"product index ({i}, {j}) out of range")
            for k, c in terms.items():
                if not 0 <= k < dim:
                    raise UsageError(f"component index {k} out of range in product ({i}, {j})")
                table[i][j][k] = field.coerce(c)
        return cls(field, dim, table, labels)

    def basis_vector(self, i):
        return tuple(self.field.one if k == i else self.field.zero for k in range(self.dim))

    def basis_vectors(self):
        return [self.basis_vector(i) for i in range(self.dim)]

    def multiply(self, u, v):
        """Bilinear product of coordinate vectors."""
        field = self.field
        zero, add, mul = field.zero, field.add, field.mul
        acc = [zero] * self.dim
        table = self.table
        for i, ui in enumerate(u):
            if ui == zero:
                continue
            row = table[i]
            for j, vj in enumerate(v):
                if vj == zero:
                    continue
                c = mul(ui, vj)
                tv = row[j]
                for k, tk in enumerate(tv):
                    if tk != zero:
                        acc[k] = add(acc[k], mul(c, tk))
        return tuple(acc)

    def left_mul_basis(self, i, v):
        """e_i * v."""
        field = self.field
        zero, add, mul = field.zero, field.add, field.mul
        acc = [zero] * self.dim
        row = self.table[i]
        for j, vj in enumerate(v):
            if vj == zero:
                continue
            tv = row[j]
            for k, tk in enumerate(tv):
                if tk != zero:
                    acc[k] = add(acc[k], mul(vj, tk))
        return tuple(acc)

    def right_mul_basis(self, v, j):
        """v * e_j."""
        field = self.field
        zero, add, mul = field.zero, field.add, field.mul
        acc = [zero] * self.dim
        table = self.table
        for i, vi in enumerate(v):
            if vi == zero:
                continue
            tv = table[i][j]
            for k, tk in enumerate(tv):
                if tk != zero:
                    acc[k] = add(acc[k], mul(vi, tk))
        return tuple(acc)

    def is_zero_vector(self, v):
        zero = self.field.zero
        return all(x == zero for x in v)

    def full_space(self):
        from .linalg import full_subspace

        return full_subspace(self.field, self.dim)

    def zero_space(self):
        return zero_subspace(self.field, self.dim)

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.dim == other.dim
            and self.table == other.table
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.field, self.dim, self.table))

    def __repr__(self):
        return f"Algebra({self.field!r}, dim={self.dim})"


def _vec_sub(field, u, v):
    return tuple(field.sub(a, b) for a, b in zip(u, v))


def _associator_basis(A, a, b, c):
    left = A.right_mul_basis(A.table[a][b], c)
    right = A.left_mul_basis(a, A.table[b][c])
    return _vec_sub(A.field, left, right)


def _primitive_failure(A, kind):
    """First basis tuple violating a single swap identity, or None."""
    n = A.dim
    if kind is IdentityKind.COMMUTATIVE:
        for a in range(n):
            for b in range(a + 1, n):
                if A.table[a][b] != A.table[b][a]:
                    return (kind, (a, b), A.table[a][b], A.table[b][a])
        return None
    for a in range(n):
        for b in range(n):
            ab = A.table[a][b]
            for c in range(n):
                if kind is IdentityKind.RIGHT_COMMUTATIVE:
                    lhs = A.right_mul_basis(ab, c)
                    rhs = A.right_mul_basis(A.table[a][c], b)
                elif kind is IdentityKind.LEFT_COMMUTATIVE:
                    lhs = A.left_mul_basis(a, A.table[b][c])
                    rhs = A.left_mul_basis(b, A.table[a][c])
                elif kind is IdentityKind.ASSOCIATIVE:
                    lhs = A.right_mul_basis(ab, c)
                    rhs = A.left_mul_basis(a, A.table[b][c])
                elif kind is IdentityKind.LEFT_SYMMETRIC:
                    lhs = _associator_basis(A, a, b, c)
                    rhs = _associator_basis(A, b, a, c)
                elif kind is IdentityKind.RIGHT_SYMMETRIC:
                    lhs = _associator_basis(A, a, b, c)
                    rhs = _associator_basis(A, a, c, b)
                else:
                    raise UsageError(f"not a primitive identity: {kind}")
                if lhs != rhs:
                    return (kind, (a, b, c), lhs, rhs)
    return None


def first_identity_failure(A: Algebra, kind):
    """First violating basis tuple as (component, indices, lhs, rhs), or None."""
    kind = IdentityKind(kind)
    for part in _COMPOSITE.get(kind, (kind,)):
        failure = _primitive_failure(A, part)
        if failure is not None:
            return failure
    return None


def check_identity(A: Algebra, kind) -> bool:
    """Decide a polynomial identity class on basis tuples (sound by multilinearity)."""
    return first_identity_failure(A, kind) is None


def classify(A: Algebra) -> frozenset:
    """Every identity class A satisfies: each primitive identity is tested
    once and the composite classes are read off from them."""
    holds = {
        kind
        for kind in IdentityKind
        if kind not in _COMPOSITE and _primitive_failure(A, kind) is None
    }
    holds.update(kind for kind, parts in _COMPOSITE.items() if holds.issuperset(parts))
    return frozenset(holds)


def subspace_product(A: Algebra, u: Subspace, v: Subspace) -> Subspace:
    """span{ x*y : x in u, y in v }, via basis products."""
    ech = Echelon(A.field, A.dim)
    for x in u.basis:
        for y in v.basis:
            p = A.multiply(x, y)
            if not A.is_zero_vector(p):
                ech.add(p)
    return ech.subspace()


def is_subalgebra(A: Algebra, u: Subspace) -> bool:
    for x in u.basis:
        for y in u.basis:
            if not u.contains_vector(A.multiply(x, y)):
                return False
    return True


def is_left_ideal(A: Algebra, u: Subspace) -> bool:
    """A*u inside u."""
    for i in range(A.dim):
        for x in u.basis:
            if not u.contains_vector(A.left_mul_basis(i, x)):
                return False
    return True


def is_right_ideal(A: Algebra, u: Subspace) -> bool:
    """u*A inside u."""
    for i in range(A.dim):
        for x in u.basis:
            if not u.contains_vector(A.right_mul_basis(x, i)):
                return False
    return True


def is_ideal(A: Algebra, u: Subspace) -> bool:
    return is_left_ideal(A, u) and is_right_ideal(A, u)


def subalgebra_closure(A: Algebra, vectors) -> Subspace:
    """Smallest subalgebra containing the given vectors."""
    ech = Echelon(A.field, A.dim)
    members = []
    for v in vectors:
        v = tuple(v)
        if ech.add(v):
            members.append(v)
    i = 0
    while i < len(members):
        w = members[i]
        for x in members[: i + 1]:
            for prod in (A.multiply(x, w), A.multiply(w, x)):
                if not A.is_zero_vector(prod) and ech.add(prod):
                    members.append(prod)
        i += 1
    return ech.subspace()


def ideal_closure(A: Algebra, vectors, ideal: Subspace | None = None) -> Subspace:
    """Smallest ideal of A containing the given vectors (and `ideal`).

    `ideal`, when given, must already be an ideal: it seeds the span and only
    the given vectors are spun, since products with it stay inside it.
    """
    ech = Echelon(A.field, A.dim)
    if ideal is not None:
        ech.add_subspace(ideal)
    members = []
    for v in vectors:
        v = tuple(v)
        if ech.add(v):
            members.append(v)
    i = 0
    while i < len(members):
        w = members[i]
        for j in range(A.dim):
            for prod in (A.left_mul_basis(j, w), A.right_mul_basis(w, j)):
                if not A.is_zero_vector(prod) and ech.add(prod):
                    members.append(prod)
        i += 1
    return ech.subspace()


def _quotient_coords(A, sub):
    return [c for c in range(A.dim) if c not in set(sub.pivots)]


def idealizer(A: Algebra, b: Subspace) -> Subspace:
    """I_A(b) = { a : a*b and b*a lie in b } - the largest subalgebra with b as an ideal."""
    return annihilator(A, b, modulo=b)


def annihilator(A: Algebra, b: Subspace, modulo: Subspace | None = None) -> Subspace:
    """Ann_A(b) = { a : a*b = b*a = 0 }, or with `modulo` a subspace M,
    { a : a*b and b*a lie in M }.  So annihilator(A, A.full_space(), modulo=I)
    is the preimage of Ann(A/I) for an ideal I.  One kernel either way."""
    mod = modulo if modulo is not None else A.zero_space()
    coords = _quotient_coords(A, mod)
    rows = []
    for x in b.basis:
        for images in (
            [mod.reduce(A.left_mul_basis(k, x)) for k in range(A.dim)],
            [mod.reduce(A.right_mul_basis(x, k)) for k in range(A.dim)],
        ):
            for c in coords:
                rows.append([img[c] for img in images])
    return kernel(Matrix(A.field, rows, ncols=A.dim))


class QuotientMap:
    """The projection A -> A/I, read off the ideal's echelon form."""

    __slots__ = ("ideal", "coords")

    def __init__(self, ideal, coords):
        self.ideal = ideal
        self.coords = coords

    def apply(self, vec):
        reduced = self.ideal.reduce(vec)
        return tuple(reduced[c] for c in self.coords)


def quotient(A: Algebra, ideal: Subspace):
    """Quotient algebra A/I with its projection; refuses non-ideals."""
    if not is_ideal(A, ideal):
        raise PreconditionError("ideal", "quotient requires an ideal")
    coords = _quotient_coords(A, ideal)
    m = len(coords)
    table = []
    for a in coords:
        row = []
        for b in coords:
            red = ideal.reduce(A.table[a][b])
            row.append(tuple(red[c] for c in coords))
        table.append(row)
    labels = tuple(A.labels[c] for c in coords) if A.labels else None
    return Algebra(A.field, m, table, labels), QuotientMap(ideal, coords)


def restrict(A: Algebra, sub: Subspace):
    """The subalgebra `sub` as an algebra in its own right, plus the embedding rows."""
    if not is_subalgebra(A, sub):
        raise PreconditionError("subalgebra", "restriction requires a subalgebra")
    coords = _coordinates_fn(sub)
    k = sub.dim
    table = []
    for x in sub.basis:
        row = []
        for y in sub.basis:
            row.append(coords(A.multiply(x, y)))
        table.append(row)
    return Algebra(A.field, k, table), sub.basis


def _coordinates_fn(sub: Subspace):
    """Coordinates w.r.t. the canonical basis; valid for members of `sub` only."""
    field = sub.field

    def coords(vec):
        v = list(vec)
        out = []
        for row, p in zip(sub.basis, sub.pivots):
            c = v[p]
            out.append(c)
            if c != field.zero:
                for i, r in enumerate(row):
                    if r != field.zero:
                        v[i] = field.sub(v[i], field.mul(c, r))
        if any(x != field.zero for x in v):
            raise UsageError("vector lies outside the subspace")
        return tuple(out)

    return coords


def _pushed_basis(A: Algebra, a, side: str):
    """Each basis vector pushed through x -> x*a (side='right') or x -> a*x
    (side='left') dim(A) times, or until it vanishes; lazily, one at a time."""
    a = tuple(a)
    if side not in ("left", "right"):
        raise UsageError("side must be 'left' or 'right'")
    for x in A.basis_vectors():
        for _ in range(A.dim):
            if A.is_zero_vector(x):
                break
            x = A.multiply(x, a) if side == "right" else A.multiply(a, x)
        yield x


def fitting_component(A: Algebra, a, side: str) -> Subspace:
    """Generalized null component of x -> x*a (side='right') or x -> a*x
    (side='left'): the kernel of its n-th power."""
    images = list(_pushed_basis(A, a, side))
    rows = [[images[j][i] for j in range(A.dim)] for i in range(A.dim)]
    return kernel(Matrix(A.field, rows, ncols=A.dim))


def acts_nilpotently(A: Algebra, a, side: str) -> bool:
    """Is x -> x*a (side='right') or x -> a*x (side='left') nilpotent?  Stops
    at the first basis vector still nonzero after dim(A) steps; no kernel."""
    return all(A.is_zero_vector(x) for x in _pushed_basis(A, a, side))


def is_right_nil(A: Algebra, a) -> bool:
    """Does repeated right multiplication by `a` kill `a` within dim(A)+1 steps?"""
    x = tuple(a)
    for _ in range(A.dim + 1):
        x = A.multiply(x, a)
        if A.is_zero_vector(x):
            return True
    return False


def direct_sum(A: Algebra, B: Algebra) -> Algebra:
    """Block-diagonal sum; the summands annihilate each other."""
    if A.field != B.field:
        raise UsageError("direct sum needs a common field")
    field = A.field
    n, m = A.dim, B.dim
    dim = n + m
    zero_vec = (field.zero,) * dim

    def emb_a(v):
        return tuple(v) + (field.zero,) * m

    def emb_b(v):
        return (field.zero,) * n + tuple(v)

    table = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if i < n and j < n:
                row.append(emb_a(A.table[i][j]))
            elif i >= n and j >= n:
                row.append(emb_b(B.table[i - n][j - n]))
            else:
                row.append(zero_vec)
        table.append(row)
    labels = None
    if A.labels and B.labels:
        # x' for the first summand, x'' for the second; more primes on the
        # second when a label would repeat (as in nested sums)
        first = tuple(f"{x}'" for x in A.labels)
        mark = "''"
        while set(first) & {x + mark for x in B.labels}:
            mark += "'"
        labels = first + tuple(x + mark for x in B.labels)
    return Algebra(field, dim, table, labels)


def opposite(A: Algebra) -> Algebra:
    """Same space with the flipped product x .op y = y x."""
    table = [[A.table[j][i] for j in range(A.dim)] for i in range(A.dim)]
    return Algebra(A.field, A.dim, table, A.labels)
