"""Exact linear algebra: RREF, canonical subspaces, sums, intersections, kernels.

Canonical form is load-bearing: a Subspace stores the reduced row echelon
basis (no zero rows) of its row space, so equality of subspaces is plain
tuple equality.  All arithmetic goes through the field object and stays exact.
"""

from __future__ import annotations

from .errors import UsageError


def _check_same_field(a, b):
    if a.field != b.field:
        raise UsageError(f"mixed fields: {a.field!r} vs {b.field!r}")


def _rref_rows(field, rows):
    """Reduce a list of row lists in place; return (reduced rows, pivot columns)."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    zero = field.zero
    sub, mul, inv = field.sub, field.mul, field.inv
    r = 0
    pivots = []
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        lead = rows[r][c]
        if lead != field.one:
            s = inv(lead)
            row = rows[r]
            for k in range(c, ncols):
                if row[k] != zero:
                    row[k] = mul(s, row[k])
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                row = rows[i]
                for k in range(c, ncols):
                    if prow[k] != zero:
                        row[k] = sub(row[k], mul(f, prow[k]))
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [rows[i] for i in range(r)], pivots


class Matrix:
    """Immutable exact matrix with rows over a single field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        rows = [tuple(field.validate(x) for x in row) for row in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise UsageError("ragged matrix rows")
        elif ncols is None:
            raise UsageError("empty matrix needs an explicit column count")
        self.field = field
        self.rows = tuple(rows)
        self.nrows = len(rows)
        self.ncols = ncols

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def apply(self, vec):
        """Matrix-vector product (vec has ncols entries)."""
        field = self.field
        zero, add, mul = field.zero, field.add, field.mul
        out = []
        for row in self.rows:
            acc = zero
            for a, x in zip(row, vec):
                if a != zero and x != zero:
                    acc = add(acc, mul(a, x))
            out.append(acc)
        return tuple(out)

    def __matmul__(self, other):
        _check_same_field(self, other)
        if self.ncols != other.nrows:
            raise UsageError("matrix shapes do not compose")
        cols = [other.column(j) for j in range(other.ncols)]
        return Matrix(
            self.field,
            [[_dot(self.field, row, col) for col in cols] for row in self.rows],
            ncols=other.ncols,
        )

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"


def _dot(field, u, v):
    acc = field.zero
    for a, b in zip(u, v):
        if a != field.zero and b != field.zero:
            acc = field.add(acc, field.mul(a, b))
    return acc


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form with zero rows dropped."""
    rows, _ = _rref_rows(m.field, [list(r) for r in m.rows])
    return Matrix(m.field, rows, ncols=m.ncols)


class Subspace:
    """A subspace of field^ambient, stored by its canonical RREF basis."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field, ambient, basis, pivots):
        self.field = field
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots

    @property
    def dim(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def reduce(self, vec):
        """Residue of vec after subtracting its projection onto this subspace."""
        field = self.field
        zero, sub, mul = field.zero, field.sub, field.mul
        v = list(vec)
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if c != zero:
                for k in range(p, self.ambient):
                    if row[k] != zero:
                        v[k] = sub(v[k], mul(c, row[k]))
        return tuple(v)

    def contains_vector(self, vec):
        zero = self.field.zero
        return all(x == zero for x in self.reduce(vec))

    def contains_subspace(self, other):
        _check_same_field(self, other)
        return all(self.contains_vector(row) for row in other.basis)

    def contains(self, x):
        """Membership for a vector or containment for a Subspace."""
        if isinstance(x, Subspace):
            return self.contains_subspace(x)
        return self.contains_vector(x)

    def sort_key(self):
        """Deterministic comparison key: dimension, then the canonical basis."""
        return (len(self.basis), self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        rows = ", ".join("(" + ", ".join(self.field.render(x) for x in row) + ")" for row in self.basis)
        return f"Subspace({self.field!r}^{self.ambient}; dim={self.dim}; [{rows}])"


def span(field, ambient: int, vectors) -> Subspace:
    """Canonical subspace spanned by `vectors` inside field^ambient."""
    rows = []
    for v in vectors:
        v = tuple(field.validate(x) for x in v)
        if len(v) != ambient:
            raise UsageError(f"vector of length {len(v)} in ambient dimension {ambient}")
        rows.append(list(v))
    reduced, pivots = _rref_rows(field, rows)
    return Subspace(field, ambient, tuple(tuple(r) for r in reduced), tuple(pivots))


def zero_subspace(field, ambient: int) -> Subspace:
    return Subspace(field, ambient, (), ())


def full_subspace(field, ambient: int) -> Subspace:
    basis = tuple(
        tuple(field.one if i == j else field.zero for j in range(ambient)) for i in range(ambient)
    )
    return Subspace(field, ambient, basis, tuple(range(ambient)))


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    _check_same_field(u, v)
    if u.ambient != v.ambient:
        raise UsageError("subspace sum needs a common ambient space")
    return span(u.field, u.ambient, list(u.basis) + list(v.basis))


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """Zassenhaus: echelonize [u|u; v|0]; zero-left rows carry the intersection."""
    _check_same_field(u, v)
    if u.ambient != v.ambient:
        raise UsageError("subspace intersection needs a common ambient space")
    field, n = u.field, u.ambient
    zero = field.zero
    rows = [list(b) + list(b) for b in u.basis]
    rows += [list(b) + [zero] * n for b in v.basis]
    reduced, _ = _rref_rows(field, rows)
    inter = [row[n:] for row in reduced if all(x == zero for x in row[:n])]
    return span(field, n, inter)


def kernel(m: Matrix) -> Subspace:
    """Canonical basis of the right null space of m."""
    field = m.field
    rows, pivots = _rref_rows(field, [list(r) for r in m.rows])
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [field.zero] * m.ncols
        v[f] = field.one
        for row, p in zip(rows, pivots):
            if row[f] != field.zero:
                v[p] = field.neg(row[f])
        basis.append(v)
    return span(field, m.ncols, basis)


class Echelon:
    """Mutable accumulator of a row space; used by closure and radical loops.

    Rows are kept forward-reduced with unit pivots in pivot order, which is
    enough for exact membership tests; `subspace()` returns the canonical
    fully reduced form.  Each row carries its nonzero support so sparse
    reductions cost O(support) instead of O(ambient).
    """

    __slots__ = ("field", "ambient", "rows", "pivots", "supports")

    def __init__(self, field, ambient):
        self.field = field
        self.ambient = ambient
        self.rows = []
        self.pivots = []
        self.supports = []

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, vec):
        field = self.field
        zero, sub, mul = field.zero, field.sub, field.mul
        v = list(vec)
        for support, p in zip(self.supports, self.pivots):
            c = v[p]
            if c != zero:
                for k, rk in support:
                    v[k] = sub(v[k], mul(c, rk))
        return v

    def contains(self, vec):
        zero = self.field.zero
        return all(x == zero for x in self._reduce(vec))

    def add(self, vec):
        """Insert vec; returns True if it enlarged the space."""
        field = self.field
        zero = field.zero
        v = self._reduce(vec)
        for p in range(self.ambient):
            if v[p] != zero:
                break
        else:
            return False
        if v[p] != field.one:
            s = field.inv(v[p])
            v = [field.mul(s, x) if x != zero else x for x in v]
        idx = 0
        while idx < len(self.pivots) and self.pivots[idx] < p:
            idx += 1
        self.rows.insert(idx, v)
        self.pivots.insert(idx, p)
        self.supports.insert(idx, [(k, x) for k, x in enumerate(v) if x != zero])
        return True

    def add_subspace(self, sub):
        grew = False
        for row in sub.basis:
            grew = self.add(row) or grew
        return grew

    def subspace(self):
        reduced, pivots = _rref_rows(self.field, [list(r) for r in self.rows])
        return Subspace(
            self.field, self.ambient, tuple(tuple(r) for r in reduced), tuple(pivots)
        )
