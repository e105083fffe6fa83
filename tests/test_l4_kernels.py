"""The sparse structure-constant kernels against their dense routes.

`superalg.comp_product`, `AlgebraSC.associativity_witness` and
`ncalg._leibniz_rows` read only nonzero structure constants; the
routes in `reference_routes` visit every basis index.  Both must give
the same tables, the same first failing triple and the same Der(A), on
seeded random inputs and on every product the Koszul check forms.
"""

import random
from fractions import Fraction

import pytest

from pforge import ncalg, superalg
from pforge.ncalg import AlgebraSC, BadAlgebra, derivations, _sparse, _table
from pforge.superalg import MultiMap, koszul_check, standard_algebra
from conftest import assert_normal_form
from reference_routes import associativity_witness, comp_product, \
    leibniz_rows
from test_exact_algebras import (CASES, both_routes, same, seeded_basis,
                                 triangular, truncated)


def identical(got, want):
    """Equal MultiMaps whose tables list their tuples in the same order."""
    assert got == want and got.arity == want.arity
    assert list(got.table) == list(want.table)
    assert_normal_form(got)


def random_map(rng, dim, arity, fractions):
    """A seeded map with about a third of its entries dropped and, if
    `fractions`, entries with denominators 2 and 3."""
    table = {}
    for idx, vec in superalg.random_multimap(dim, arity, rng).table.items():
        if rng.random() < 0.3:
            continue
        if fractions:
            vec = [Fraction(x, rng.choice((1, 2, 3))) for x in vec]
        table[idx] = vec
    return MultiMap(dim, arity, table)


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
def test_comp_product_matches_shuffle_sum_on_random_maps(fractions):
    rng = random.Random(2401 + fractions)
    for _ in range(60):
        dim, m, n = rng.randint(1, 6), rng.randint(1, 3), rng.randint(0, 3)
        a = random_map(rng, dim, m, fractions)
        b = random_map(rng, dim, n, fractions)
        identical(superalg.comp_product(a, b), comp_product(a, b))


KOSZUL_ALGEBRAS = [(name, standard_algebra(name)) for name in
                   ("Q", "QxQ", "Q[t]/t^3", "Q[s,t]/(s^2,t^2)")] + \
    [(c[0], c[1]) for c in CASES if c[0][:4] in ("x2y2", "x3y1")]


@pytest.mark.parametrize("name, A", KOSZUL_ALGEBRAS,
                         ids=[c[0] for c in KOSZUL_ALGEBRAS])
def test_comp_product_matches_shuffle_sum_on_koszul_pairs(name, A,
                                                          monkeypatch):
    # every product of the check, supercommutators included, goes
    # through superalg._compose
    pairs = []
    compose = superalg._compose

    def record(alpha, beta, acc, scale):
        pairs.append((alpha, beta))
        return compose(alpha, beta, acc, scale)
    monkeypatch.setattr(superalg, "_compose", record)
    assert koszul_check(A)["ok"]
    monkeypatch.undo()
    assert pairs
    for alpha, beta in pairs:
        identical(superalg.comp_product(alpha, beta),
                  comp_product(alpha, beta))


def catalog_tables():
    """(name, mult, unit) of the commutative and matrix catalog algebras,
    in the standard basis and in seeded bases with 1/2 constants."""
    rng = random.Random(2402)
    out = [(name, A.mult, A.unit) for name, A in KOSZUL_ALGEBRAS[:4]]
    for name, (mult, one, _) in (("x2y3", truncated(2, 3)),
                                 ("t3", triangular(3))):
        out.append((name, mult, one))
        for half in (False, True):
            B, table = seeded_basis(rng, mult, half)
            out.append(("%s-%s" % (name, half), table, B.vec(one)))
    return out


CATALOG = catalog_tables()


def refusal(mult):
    """The BadAlgebra text for a table, or None when it is accepted."""
    try:
        AlgebraSC(len(mult), mult)
    except BadAlgebra as e:
        return str(e)
    return None


def test_associativity_witness_matches_dense_route_on_perturbed_tables(
        monkeypatch):
    rng = random.Random(2403)
    failures = 0
    for _ in range(150):
        _, mult, _ = rng.choice(CATALOG)
        d = len(mult)
        mult = [[list(v) for v in row] for row in mult]
        for _ in range(rng.randint(1, 2)):
            i, j, k = (rng.randrange(d) for _ in range(3))
            mult[i][j][k] += rng.choice((1, -1, Fraction(1, 2)))
        A = object.__new__(AlgebraSC)
        A.dim, A.mult = d, _table(d, mult, BadAlgebra)
        A._sparse = _sparse(A.mult)
        want = associativity_witness(A)
        assert A.associativity_witness() == want
        got = refusal(mult)
        with monkeypatch.context() as mp:
            mp.setattr(AlgebraSC, "associativity_witness",
                       associativity_witness)
            assert got == refusal(mult)
        failures += want is not None
    assert failures > 100


def test_associativity_witness_is_none_on_the_catalog():
    for _, mult, unit in CATALOG:
        A = AlgebraSC(len(mult), mult, unit)
        assert A.associativity_witness() is None is associativity_witness(A)


@pytest.mark.parametrize("name, mult, unit", CATALOG,
                         ids=[c[0] for c in CATALOG])
def test_derivations_match_dense_leibniz_rows(name, mult, unit,
                                              monkeypatch):
    A = AlgebraSC(len(mult), mult, unit)
    assert ncalg._leibniz_rows(A) == leibniz_rows(A)
    got = both_routes(derivations, A)
    monkeypatch.setattr(ncalg, "_leibniz_rows", leibniz_rows)
    same(got, derivations(A))
