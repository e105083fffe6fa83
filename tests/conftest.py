"""Shared fixtures: the structure catalog and random element builders."""

import os
import random
from fractions import Fraction

import pytest

from pforge.ratpoly import Poly, parse_poly
from pforge.multivec import Multivector, all_index_tuples
from pforge.forms import Form


def pytest_configure(config):
    # CLI tests run `python -m pforge.cli` in a subprocess, which must
    # find the package in a checkout that is not installed.
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))


def bivector(n, table):
    """Bivector from {(i, j): "coefficient string"}."""
    return Multivector(n, 2, {k: parse_poly(v, n) for k, v in table.items()})


@pytest.fixture
def plane():
    return bivector(2, {(0, 1): "1"})


@pytest.fixture
def so3():
    return bivector(3, {(0, 1): "x2", (1, 2): "x0", (0, 2): "-x1"})


@pytest.fixture
def sl2():
    return bivector(3, {(0, 1): "2*x1", (0, 2): "-2*x2", (1, 2): "x0"})


@pytest.fixture
def non_jacobi():
    # d0^d1 + x0 d2^d0; fails the Jacobi identity
    return bivector(3, {(0, 1): "1", (0, 2): "-x0"})


def random_poly(n, rng, max_degree=2, terms=2, bound=2):
    acc = {}
    for _ in range(terms):
        e = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(n)] += 1
        c = Fraction(rng.randint(-bound, bound))
        acc[tuple(e)] = acc.get(tuple(e), Fraction(0)) + c
    return Poly(n, {e: c for e, c in acc.items() if c})


def random_multivector(n, grade, rng, max_degree=2):
    terms = {}
    for idx in all_index_tuples(n, grade):
        c = random_poly(n, rng, max_degree)
        if not c.is_zero():
            terms[idx] = c
    return Multivector(n, grade, terms)


def random_form(n, grade, rng, max_degree=2):
    terms = {}
    for idx in all_index_tuples(n, grade):
        c = random_poly(n, rng, max_degree)
        if not c.is_zero():
            terms[idx] = c
    return Form(n, grade, terms)


def rng_for(seed):
    return random.Random(seed)


def assert_normal_form(x, path="result"):
    """Every number in x is in linalg's normal form: an int, never a
    bool, when it is integral, else a Fraction.  Walks lists, tuples,
    dicts and the public fields of result objects; a bool is allowed
    as a dict value (a verdict), and None and strings anywhere."""
    from pforge.ncalg import AlgebraSC, LieAlgebraSC
    from pforge.superalg import MultiMap
    if isinstance(x, (AlgebraSC, LieAlgebraSC, MultiMap)):
        for name in x.__slots__:
            if not name.startswith("_"):
                assert_normal_form(getattr(x, name), "%s.%s" % (path, name))
    elif isinstance(x, dict):
        for k, v in x.items():
            if not isinstance(v, bool):
                assert_normal_form(v, "%s[%r]" % (path, k))
    elif isinstance(x, (list, tuple)):
        for i, v in enumerate(x):
            assert_normal_form(v, "%s[%d]" % (path, i))
    elif x is not None and not isinstance(x, str):
        assert type(x) is int or (type(x) is Fraction
                                  and x.denominator != 1), (path, x)
