"""Independent exact oracles that the benchmark checks the program's answers with.

Nothing here imports nonassoc.  A table is the nested sequence
``table[i][j][k]`` of residues mod a prime ``p`` (the coefficient of e_k in
e_i e_j), and a subspace is a list of row vectors.  Identities are decided on
basis tuples, which is sound because every identity involved is multilinear.
"""

from __future__ import annotations

import itertools

PRIMITIVES = (
    "right-commutative",
    "left-commutative",
    "left-symmetric",
    "right-symmetric",
    "associative",
    "commutative",
)
COMPOSITES = {
    "bicommutative": ("right-commutative", "left-commutative"),
    "assosymmetric": ("left-symmetric", "right-symmetric"),
    "novikov-left": ("left-symmetric", "right-commutative"),
    "novikov-right": ("right-symmetric", "left-commutative"),
}
NATURAL = ("bicommutative", "assosymmetric", "novikov-left", "novikov-right")


def _triple_products(table, p):
    """left[a][b][c] = (e_a e_b) e_c and right[a][b][c] = e_a (e_b e_c)."""
    n = len(table)
    rng = range(n)

    def times_basis(vec, c):
        out = [0] * n
        for m, x in enumerate(vec):
            if x:
                row = table[m][c]
                for k in rng:
                    out[k] += x * row[k]
        return tuple(v % p for v in out)

    def basis_times(a, vec):
        out = [0] * n
        for m, x in enumerate(vec):
            if x:
                row = table[a][m]
                for k in rng:
                    out[k] += x * row[k]
        return tuple(v % p for v in out)

    left = [[[times_basis(table[a][b], c) for c in rng] for b in rng] for a in rng]
    right = [[[basis_times(a, table[b][c]) for c in rng] for b in rng] for a in rng]
    return left, right


def primitive_truths(table, p, wanted=PRIMITIVES):
    """Map each wanted primitive identity to whether the table satisfies it."""
    n = len(table)
    out = {}
    if "commutative" in wanted:
        out["commutative"] = all(
            tuple(table[a][b]) == tuple(table[b][a]) for a in range(n) for b in range(n)
        )
    rest = [k for k in wanted if k != "commutative"]
    if not rest:
        return out
    left, right = _triple_products(table, p)
    triples = list(itertools.product(range(n), repeat=3))

    def assoc(a, b, c):
        return tuple((x - y) % p for x, y in zip(left[a][b][c], right[a][b][c]))

    tests = {
        "right-commutative": lambda a, b, c: left[a][b][c] == left[a][c][b],
        "left-commutative": lambda a, b, c: right[a][b][c] == right[b][a][c],
        "left-symmetric": lambda a, b, c: assoc(a, b, c) == assoc(b, a, c),
        "right-symmetric": lambda a, b, c: assoc(a, b, c) == assoc(a, c, b),
        "associative": lambda a, b, c: left[a][b][c] == right[a][b][c],
    }
    for kind in rest:
        test = tests[kind]
        out[kind] = all(test(a, b, c) for a, b, c in triples)
    return out


def kinds_holding(table, p):
    """The set of identity-class names (all ten) the table satisfies."""
    prim = primitive_truths(table, p)
    out = {k for k, v in prim.items() if v}
    out.update(k for k, parts in COMPOSITES.items() if all(prim[x] for x in parts))
    return out


def holds(table, p, kind):
    """Does the table satisfy the named identity class?"""
    parts = COMPOSITES.get(kind, (kind,))
    return all(primitive_truths(table, p, parts).values())


def any_primitive(table, p):
    """Does the table satisfy at least one identity class?  (Every composite
    class implies its primitive parts, so the six primitives decide this.)"""
    return any(primitive_truths(table, p).values())


# -- linear algebra mod p -----------------------------------------------------


def rref(rows, p):
    """Reduced row echelon form of the rows, zero rows dropped."""
    rows = [[x % p for x in r] for r in rows]
    out = []
    col = 0
    width = len(rows[0]) if rows else 0
    while rows and col < width:
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            col += 1
            continue
        rows.remove(pivot)
        inv = pow(pivot[col], p - 2, p)
        pivot = [x * inv % p for x in pivot]
        rows = [[(x - r[col] * y) % p for x, y in zip(r, pivot)] for r in rows]
        out = [[(x - r[col] * y) % p for x, y in zip(r, pivot)] for r in out]
        out.append(pivot)
        rows = [r for r in rows if any(r)]
        col += 1
    return out


def rank(rows, p):
    return len(rref(rows, p))


def contains_all(basis, vectors, p):
    """Are all the vectors in the row space of basis?"""
    r = rank(basis, p)
    return all(rank(list(basis) + [list(v)], p) == r for v in vectors)


def product(table, u, v, p):
    n = len(table)
    out = [0] * n
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                if y:
                    row = table[i][j]
                    for k in range(n):
                        out[k] += x * y * row[k]
    return [c % p for c in out]


def _unit(n, i):
    return [1 if k == i else 0 for k in range(n)]


def is_ideal(table, basis, p):
    n = len(table)
    units = [_unit(n, i) for i in range(n)]
    images = [product(table, e, b, p) for e in units for b in basis]
    images += [product(table, b, e, p) for e in units for b in basis]
    return contains_all(basis, images, p)


def is_subalgebra(table, basis, p):
    return contains_all(basis, [product(table, x, y, p) for x in basis for y in basis], p)


def square(table, p):
    """Row-reduced basis of A^2, the span of all products of basis vectors."""
    n = len(table)
    return rref([list(table[i][j]) for i in range(n) for j in range(n)], p)


def same_space(u, v, p):
    return rref(u, p) == rref(v, p)
