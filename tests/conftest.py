"""Shared helpers for the test suite."""
from __future__ import annotations

import functools
import random

import pytest

from nonassoc.algebra import Algebra, classify
from nonassoc.corpus import exhaustive_algebras
from nonassoc.fields import GF, QQ


def make(field, dim, prods, labels=None):
    """Shorthand for Algebra.from_products with int coefficients."""
    return Algebra.from_products(field, dim, prods, labels=labels)


@functools.lru_cache(maxsize=None)
def pool_members(prime, dim, sparsity):
    """Every table of the spec that satisfies at least one identity class."""
    return tuple(A for A in exhaustive_algebras(GF(prime), dim, sparsity) if classify(A))


def f3_members(count, seed):
    """Seeded F_3 dimension-3 pool members: at most four nonzero constants."""
    rng = random.Random(seed)
    field = GF(3)
    slots = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    members = []
    while len(members) < count:
        table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        for i, j, k in rng.sample(slots, rng.randint(0, 4)):
            table[i][j][k] = rng.randint(1, 2)
        A = Algebra(field, 3, table)
        if classify(A):
            members.append(A)
    return members


@pytest.fixture
def f2():
    return GF(2)


@pytest.fixture
def f3():
    return GF(3)


@pytest.fixture
def f5():
    return GF(5)


@pytest.fixture
def qq():
    return QQ
