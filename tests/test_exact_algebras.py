"""The integer-first finite-algebra layer against a Fraction-only route.

`ncalg` and `superalg` keep integral values as ints on top of `linalg`'s
integer elimination.  The Fraction-only route runs the same algebra code
with every value `linalg` normalises kept a Fraction and every
elimination done by the dense Fraction Gauss-Jordan of
`test_linalg.dense_rref`, as the layer computed before it went
integer-first.  On seeded random algebras, with integral structure
constants and with 1/2 entries, both routes must give equal answers
entry by entry, and the default route's answers must be in normal form.
"""

import contextlib
import random
from fractions import Fraction

import pytest

from pforge import linalg
from pforge.ncalg import (AlgebraSC, LieAlgebraSC,
                          derivations, submanifold_check, quotient_check,
                          bott_integral, bott_quotient, bott_forms,
                          validate_algebra)
from pforge.superalg import (MultiMap, OperatorSpace, comp_product,
                             koszul_check, standard_algebra, supercomm,
                             super_axiom_report)
from conftest import assert_normal_form
from reference_routes import der_brackets, eval_first, operator_space_mu
from test_linalg import dense_rref, oracle_invert


def _fraction_reduce(rows):
    """`linalg._reduce` by dense Fraction Gauss-Jordan."""
    rows = [row if isinstance(row, dict) else dict(enumerate(row))
            for row in rows]
    width = 1 + max((c for row in rows for c in row), default=-1)
    red, pivots = dense_rref([[row.get(c, 0) for c in range(width)]
                              for row in rows])
    return [(c, {k: x for k, x in enumerate(red[i]) if x})
            for i, c in enumerate(pivots)]


@contextlib.contextmanager
def fraction_only():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_reduce", _fraction_reduce)
        mp.setattr(linalg, "rank", lambda rows: len(_fraction_reduce(rows)))
        mp.setattr(linalg, "exact", Fraction)
        mp.setattr(linalg, "exact_vector",
                   lambda v: [Fraction(x) for x in v])
        mp.setattr(linalg, "unit_vector",
                   lambda i, n: [Fraction(int(k == i)) for k in range(n)])
        yield


def same(a, b, path="result"):
    """a and b hold equal values in the same shape."""
    assert type(a) is type(b) or {type(a), type(b)} <= {int, Fraction}, \
        (path, a, b)
    if isinstance(a, (AlgebraSC, LieAlgebraSC, MultiMap)):
        for name in a.__slots__:
            same(getattr(a, name), getattr(b, name), "%s.%s" % (path, name))
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            same(a[k], b[k], "%s[%r]" % (path, k))
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            same(x, y, "%s[%d]" % (path, i))
    else:
        assert a == b, (path, a, b)


def flat(m):
    return [x for row in m for x in row]


def both_routes(fn, *args):
    """fn(*args) by the default route, checked against the Fraction-only
    route and for normal form."""
    got = fn(*args)
    with fraction_only():
        want = fn(*args)
    same(got, want)
    assert_normal_form(got)
    return got


# -- seeded random bases ----------------------------------------------


def _mat_mul(a, b):
    return [[sum((x * b[k][j] for k, x in enumerate(row)), Fraction(0))
             for j in range(len(b[0]))] for row in a]


def random_basis(rng, d, half):
    """(P, P^-1) for a seeded basis change: a product of integer shears,
    signs and a permutation, with some columns doubled if `half`, so the
    structure constants gain entries such as 1/2."""
    P = [[Fraction(int(r == c)) for c in range(d)] for r in range(d)]
    for _ in range(d):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if i != j:
            k = rng.choice((-1, 1, 2))
            P[i] = [x + k * y for x, y in zip(P[i], P[j])]
    perm = list(range(d))
    rng.shuffle(perm)
    scale = [rng.choice((1, -1)) * (rng.choice((1, 2)) if half else 1)
             for _ in range(d)]
    if half:
        scale[rng.randrange(d)] *= 2
    P = [[P[r][perm[c]] * scale[c] for c in range(d)] for r in range(d)]
    return P, oracle_invert(P)


class Basis:
    """Coordinates in the basis f_i = sum_k P[k][i] e_k."""

    def __init__(self, rng, d, half):
        self.P, self.Q = random_basis(rng, d, half)

    def vec(self, v):
        return [sum((q * x for q, x in zip(row, v)), Fraction(0))
                for row in self.Q]

    def table(self, mult):
        d = len(mult)
        P = self.P
        return [[self.vec([sum((P[a][i] * P[b][j] * mult[a][b][c]
                                for a in range(d) for b in range(d)),
                               Fraction(0)) for c in range(d)])
                 for j in range(d)] for i in range(d)]

    def op(self, X):
        return _mat_mul(_mat_mul(self.Q, X), self.P)


# -- algebras in the standard basis -------------------------------------


def truncated(a, b):
    """Q[x]/x^a (x) Q[y]/y^b on x^i y^j: (mult, unit, names)."""
    names = [(i, j) for i in range(a) for j in range(b)]
    mult = [[[int(i + k < a and j + l < b and (i + k, j + l) == z)
              for z in names] for (k, l) in names] for (i, j) in names]
    return mult, [int(z == (0, 0)) for z in names], names


def triangular(n):
    """Upper triangular n x n matrices on E_ij, i <= j."""
    names = [(i, j) for i in range(n) for j in range(i, n)]
    mult = [[[int(j == k and z == (i, l)) for z in names]
             for (k, l) in names] for (i, j) in names]
    return mult, [int(i == j) for i, j in names], names


def gl(n):
    names = [(i, j) for i in range(n) for j in range(n)]
    c = [[[int(j == k and z == (i, l)) - int(l == i and z == (k, j))
           for z in names] for (k, l) in names] for (i, j) in names]
    return c, names


def unit(k, d):
    return [int(i == k) for i in range(d)]


def halves(table):
    """The structure constants with denominator 2."""
    return [x for row in table for v in row for x in v
            if type(x) is Fraction and x.denominator == 2]


def seeded_basis(rng, table, half):
    """A random basis, drawn again until the constants carry a 1/2 if
    `half`: (basis, constants in it)."""
    while True:
        B = Basis(rng, len(table), half)
        new = B.table(table)
        if not half or halves(new):
            return B, new


def cases(seed):
    """Seeded (name, algebra, ideal, subalgebra, Euler operators) in a
    random basis: integral constants, then constants with 1/2."""
    rng = random.Random(seed)
    out = []
    for half in (False, True):
        for a, b in ((2, 2), (3, 1), (2, 3)):
            mult, one, names = truncated(a, b)
            B, table = seeded_basis(rng, mult, half)
            d = len(names)
            euler = [[[Fraction(names[c][t]) if r == c else Fraction(0)
                       for c in range(d)] for r in range(d)] for t in (0, 1)]
            out.append(("x%dy%d-%s" % (a, b, half),
                        AlgebraSC(d, table, B.vec(one)),
                        [B.vec(unit(k, d)) for k, z in enumerate(names)
                         if z[1] >= 1],
                        [B.vec(unit(k, d)) for k, z in enumerate(names)
                         if z[1] == 0],
                        [B.op(X) for X in euler]))
        mult, one, names = triangular(2)
        B, table = seeded_basis(rng, mult, half)
        out.append(("t2-%s" % half, AlgebraSC(3, table, B.vec(one)),
                    [B.vec(unit(1, 3))], [B.vec(unit(0, 3)),
                                          B.vec(unit(2, 3))], None))
    return out


CASES = cases(9090)
IDS = [c[0] for c in CASES]


def test_cases_carry_integral_and_half_constants():
    integral = [all(type(x) is int for row in A.mult for v in row for x in v)
                for _, A, *_ in CASES]
    assert integral == [True] * 4 + [False] * 4
    assert all(halves(A.mult) for _, A, *_ in CASES[4:])


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_derivations_match_fraction_route(case):
    _, A, *_ = case
    assert_normal_form(A)
    both_routes(derivations, A)
    both_routes(validate_algebra, A)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_der_brackets_match_subspace_coordinates(case):
    _, A, *_ = case

    def both(A):
        rep = derivations(A)
        return rep["brackets"], der_brackets(rep["basis"])
    got, want = both_routes(both, A)
    same(got, want)
    assert any(x for row in got for v in row for x in v)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_kernel_read_over_derivation_sub_bases(case):
    # Der_I, Der_I_0, Q_B and V_B are `_sub_basis` combinations of the
    # Der(A) basis, which keep its shape: the kernel read over each
    # agrees with `Subspace` on the Der(A) basis, on its own basis and
    # on sums of neighbours in each
    _, A, ideal, sub, _ = case
    der = [flat(X) for X in derivations(A)["basis"]]
    probes = der + [[a + b for a, b in zip(u, v)] for u, v in
                    zip(der, der[1:])]
    info = dict(submanifold_check(A, ideal), **quotient_check(A, sub))
    for key in ("der_I", "der_I_0", "Q_B", "V_B"):
        basis = [flat(X) for X in info[key]]
        read = linalg.kernel_coords(basis)
        span = linalg.Subspace(basis, A.dim ** 2)
        sums = [[a + b for a, b in zip(u, v)] for u, v in zip(basis,
                                                            basis[1:])]
        for v in probes + basis + sums:
            assert read(v) == span.coords(v)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_submanifold_and_quotient_match_fraction_route(case):
    _, A, ideal, sub, _ = case
    assert both_routes(submanifold_check, A, ideal)["submanifold"] in (
        True, False)
    both_routes(quotient_check, A, sub)


@pytest.mark.parametrize("case", [c for c in CASES if c[4]],
                         ids=[c[0] for c in CASES if c[4]])
def test_bott_integral_matches_fraction_route(case):
    _, A, ideal, _, ops = case
    assert "matrices" in both_routes(bott_integral, A, ops, ideal)


@pytest.mark.parametrize("case", [c for c in CASES if c[0][:4] in
                                  ("x2y2", "x3y1")],
                         ids=[c[0] for c in CASES if c[0][:4] in
                              ("x2y2", "x3y1")])
def test_koszul_check_matches_fraction_route(case):
    _, A, *_ = case
    assert both_routes(koszul_check, A)["ok"] is True


MU_CASES = [(name, standard_algebra(name)) for name in
            ("Q", "QxQ", "Q[t]/t^3", "Q[s,t]/(s^2,t^2)")] + \
    [(c[0], c[1]) for c in CASES if c[0][:4] in ("x2y2", "x3y1")]


@pytest.mark.parametrize("name, A", MU_CASES, ids=[c[0] for c in MU_CASES])
def test_closed_form_mu_matches_commutator_route(name, A):
    got, want = both_routes(lambda A: (OperatorSpace(A).mu(),
                                       operator_space_mu(A)), A)
    same(got, want)


@pytest.mark.parametrize("half", [False, True], ids=["integral", "half"])
def test_bott_connections_match_fraction_route(half):
    rng = random.Random(9191)
    c, names = gl(2)
    B, table = seeded_basis(rng, c, half)
    g = LieAlgebraSC(4, table)
    assert_normal_form(g)
    borel = [B.vec(unit(k, 4)) for k, (i, j) in enumerate(names) if i <= j]
    table = both_routes(bott_quotient, g, borel)
    assert table["flat"]
    assert both_routes(bott_forms, g, borel)["flat"] is True


def test_multimaps_hold_normal_form():
    m = MultiMap(3, 1, {(0,): [True, Fraction(4, 2), "1/2"]})
    assert m.table == {(0,): [1, 2, Fraction(1, 2)]}
    assert_normal_form(eval_first(m, [Fraction(2), 0, 0], ()))
    # the Fraction products come out integral: 2 * 1/2 and 1/2 * 2
    h = MultiMap(2, 1, {(0,): [Fraction(1, 2), 0], (1,): [0, 2]})
    g = MultiMap(2, 1, {(0,): [2, 0], (1,): [0, Fraction(1, 2)]})
    assert comp_product(h, g).table == {(0,): [1, 0], (1,): [0, 1]}
    assert supercomm(h, g).table == {}
    tensor = MultiMap(2, 2, {(0, 1): [Fraction(1, 2), 2]})
    assert supercomm(tensor, g).table == {(0, 1): [Fraction(-1, 4), -4]}
    for m2 in (comp_product(h, g), supercomm(h, g), supercomm(tensor, g),
               supercomm(g, tensor), comp_product(tensor, h)):
        assert_normal_form(m2)
    assert_normal_form(MultiMap(2, 0, {(): [Fraction(3, 3), False]}))
    assert both_routes(super_axiom_report, 3, 5, 4)["ok"] is True


def test_bool_and_fraction_constants_are_stored_as_int():
    A = AlgebraSC(2, [[[True, 0], [0, Fraction(2, 2)]],
                      [[0, 1], [Fraction(0), 0]]], [True, False])
    assert A.unit == [1, 0] and type(A.unit[0]) is int
    assert_normal_form(A)
    assert_normal_form(A.multiply([Fraction(1, 2), 0], [2, Fraction(1, 3)]))
    assert_normal_form(derivations(A))
