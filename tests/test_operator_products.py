"""The sparse operator products of `ncalg` and `superalg`.

Every operator product in the L4 layer goes through one kernel,
`ncalg._product`, on the nonzero (column, value) pairs that `ncalg._rows`
lists per row.  It must agree with the dense matrix product, entry by
entry, on seeded matrices; Der(A)'s bracket tables must equal the
coordinate solves of `reference_routes.der_brackets`, which take dense
commutators; and the self-checks that read those products must still
fire, with the messages and first failing pairs that the dense products
gave (recorded from them).
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from pforge import linalg, ncalg
from pforge.ncalg import AlgebraSC, derivations
from pforge.superalg import koszul_check, standard_algebra
from conftest import assert_normal_form
from reference_routes import commutator, der_brackets
from test_exact_algebras import same, seeded_basis, triangular, truncated


def random_matrix(rng, rows, cols, fractions):
    """A seeded matrix of mostly zeros, with about one row and one column
    in four left zero, and entries with denominators 2 and 3 if
    `fractions`."""
    dead_rows = {r for r in range(rows) if rng.random() < 0.25}
    dead_cols = {c for c in range(cols) if rng.random() < 0.25}
    out = []
    for r in range(rows):
        row = []
        for c in range(cols):
            x = 0
            if r not in dead_rows and c not in dead_cols and \
                    rng.random() < 0.4:
                x = rng.choice((-3, -2, -1, 1, 2, 5))
                if fractions:
                    x = linalg.exact(Fraction(x, rng.choice((1, 2, 3))))
            row.append(x)
        out.append(row)
    return out


def flat(m):
    return [x for row in m for x in row]


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
def test_product_matches_dense_product(fractions):
    rng = random.Random(2501 + fractions)
    for _ in range(200):
        d, k = rng.randint(0, 7), rng.randint(0, 7)
        if rng.random() < 0.5:
            k = d
        a = random_matrix(rng, d, d, fractions)
        b = random_matrix(rng, d, k, fractions)
        sign = rng.choice((1, -1))
        start = flat(random_matrix(rng, d, k, fractions))
        got = ncalg._product(list(start), ncalg._rows(a), ncalg._rows(b), k,
                             sign)
        want = [x + sign * y
                for x, y in zip(start, flat(linalg.mat_mul(a, b)))] \
            if k else []
        assert got == want
        assert_normal_form(linalg.exact_vector(got))


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
def test_commutator_matches_dense_commutator(fractions):
    rng = random.Random(2503 + fractions)
    for _ in range(200):
        d = rng.randint(0, 7)
        a, b = (random_matrix(rng, d, d, fractions) for _ in range(2))
        got = ncalg._commutator(ncalg._rows(a), ncalg._rows(b), d)
        assert got == flat(commutator(a, b))
        assert_normal_form(linalg.exact_vector(got))


def jet(n, k, rng):
    """The jet algebra Q[x]/m^(k+1) in n variables, on a seeded signed
    permutation of its monomial basis: (mult, unit)."""
    names = [e for e in product(range(k + 1), repeat=n) if sum(e) <= k]
    rng.shuffle(names)
    sign = [rng.choice((1, -1)) for _ in names]
    pos = {e: w for w, e in enumerate(names)}
    d = len(names)
    mult = [[[0] * d for _ in range(d)] for _ in range(d)]
    for u, e in enumerate(names):
        for v, f in enumerate(names):
            w = pos.get(tuple(a + b for a, b in zip(e, f)))
            if w is not None:
                mult[u][v][w] = sign[u] * sign[v] * sign[w]
    unit = [sign[w] if not any(e) else 0 for w, e in enumerate(names)]
    return mult, unit


JETS = [(n, k) for n, top in ((2, 4), (3, 2)) for k in range(1, top + 1)]


@pytest.mark.parametrize("n, k", JETS, ids=["n%d-k%d" % c for c in JETS])
def test_bracket_tables_match_commutator_solves_on_jets(n, k):
    rng = random.Random(2505 + 10 * n + k)
    for _ in range(2):
        mult, unit = jet(n, k, rng)
        A = AlgebraSC(len(mult), mult, unit)
        der = derivations(A)
        # Der(A_k) has dimension n(d - 1): D(x_i) may be any element of m
        assert len(der["basis"]) == n * (A.dim - 1)
        same(der["brackets"], der_brackets(der["basis"]))
        assert_normal_form(der)


def dropping(k, d):
    """`linalg.nullspace` with the k-th vector of a kernel basis of width
    d^2 (Der(A)'s, for A of dimension d) left out."""
    nullspace = linalg.nullspace

    def drop(rows, ncols=None):
        out = nullspace(rows, ncols=ncols)
        if ncols == d * d:
            del out[k]
        return out
    return drop


def algebra(name):
    rng = random.Random(2507)
    if name == "t3":
        mult, one, _ = triangular(3)
    elif name == "x2y3":
        mult, one, _ = truncated(2, 3)
    else:
        mult, one, _ = truncated(2, 3)
        B, mult = seeded_basis(rng, mult, True)
        one = B.vec(one)
    return AlgebraSC(len(mult), mult, one)


# (algebra, dropped basis vector, the message the dense commutators gave)
CLOSURE = [("t3", 2, "(1, 3)"), ("x2y3", 2, "(0, 2)"), ("x2y3", 4, "(0, 4)"),
           ("x2y3-half", 0, "(0, 1)"), ("x2y3-half", 4, "(0, 3)"),
           ("x2y3-half", 5, "(0, 2)")]


@pytest.mark.parametrize("name, k, pair", CLOSURE,
                         ids=["%s-%d" % c[:2] for c in CLOSURE])
def test_closure_check_fires_on_an_incomplete_basis(name, k, pair,
                                                    monkeypatch):
    A = algebra(name)
    monkeypatch.setattr(linalg, "nullspace", dropping(k, A.dim))
    with pytest.raises(AssertionError) as err:
        derivations(A)
    assert str(err.value) == "Der(A) not closed under commutator at " + pair


# (algebra, dropped basis vector, the message the dense products gave)
MODULE = [("Q[t]/t^3", 0, "e_1 . X_0"), ("Q[s,t]/(s^2,t^2)", 1, "e_2 . X_0"),
          ("Q[s,t]/(s^2,t^2)", 2, "e_1 . X_0")]


@pytest.mark.parametrize("name, k, pair", MODULE,
                         ids=["%s-%d" % c[:2] for c in MODULE])
def test_module_action_check_fires_on_an_incomplete_basis(name, k, pair,
                                                          monkeypatch):
    A = standard_algebra(name)
    monkeypatch.setattr(linalg, "nullspace", dropping(k, A.dim))
    with pytest.raises(AssertionError) as err:
        koszul_check(A)
    assert str(err.value) == pair + " is not a derivation"
