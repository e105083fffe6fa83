import random
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from pforge.ratpoly import Poly, parse_poly
from pforge.forms import Form, form_wedge, form_d, delta
from pforge.multivec import Multivector, sort_sign
from pforge.symplectic import (SymplecticContext, DegenerateBivector,
                               OddDimension, NotConstantCoefficient)
from conftest import bivector, random_form, rng_for, assert_normal_form
from test_linalg import oracle_invert

R2 = bivector(2, {(0, 1): "1"})
R4 = bivector(4, {(0, 1): "1", (2, 3): "1"})
R4_SKEW = bivector(4, {(0, 1): "2", (2, 3): "-1/3", (0, 3): "1"})
Q6 = bivector(6, {(0, 1): "1/2", (2, 3): "3", (4, 5): "-2/3", (0, 3): "1/5",
                  (1, 4): "-7/2"})


def bivector_matrix(p):
    pmat = [[0] * p.n for _ in range(p.n)]
    for (i, j), c in p.terms.items():
        pmat[i][j], pmat[j][i] = c.constant_term(), -c.constant_term()
    return pmat


def oracle_omega(p):
    """The 2-form whose matrix is the inverse of p's, by dense
    elimination, or None when p is degenerate."""
    inv = oracle_invert(bivector_matrix(p))
    if inv is None:
        return None
    return Form(p.n, 2, {(i, j): inv[i][j] for i in range(p.n)
                         for j in range(i + 1, p.n)})


def form_power(a, k):
    out = Form.from_poly(parse_poly("1", a.n))
    for _ in range(k):
        out = form_wedge(out, a)
    return out


@pytest.mark.parametrize("p", [R2, R4, R4_SKEW])
def test_star_is_an_involution(p):
    ctx = SymplecticContext(p)
    rng = rng_for(21)
    for _ in range(12):
        a = random_form(p.n, rng.randint(0, p.n), rng)
        assert ctx.star(ctx.star(a)) == a


@pytest.mark.parametrize("p", [R2, R4, R4_SKEW])
def test_star_one_and_volume(p):
    ctx = SymplecticContext(p)
    one = Form.from_poly(parse_poly("1", p.n))
    assert ctx.star(one) == ctx.vol
    assert ctx.star(ctx.vol) == one
    # vol's one coefficient is an int when integral
    assert_normal_form(ctx.vol.coeff(range(p.n)).constant_term())


@pytest.mark.parametrize("p", [R2, R4, R4_SKEW])
def test_delta_via_star_conjugation(p):
    # delta = (-1)^k star d star on k-forms
    ctx = SymplecticContext(p)
    rng = rng_for(22)
    a0 = random_form(p.n, 0, rng)
    assert delta(p, a0).is_zero()
    for _ in range(12):
        k = rng.randint(1, p.n)
        a = random_form(p.n, k, rng)
        assert delta(p, a) == ctx.star(form_d(ctx.star(a))).scale((-1) ** k)


@pytest.mark.parametrize("p", [R2, R4, R4_SKEW])
def test_bracket_volume_identity(p):
    # {f,g} omega^m = m dg ^ df ^ omega^(m-1)
    from pforge.forms import pbracket_of, d_poly
    omega = oracle_omega(p)
    m = p.n // 2
    rng = rng_for(23)
    from conftest import random_poly

    for _ in range(8):
        f = random_poly(p.n, rng)
        g = random_poly(p.n, rng)
        lhs = form_wedge(Form.from_poly(pbracket_of(p, f, g)),
                         form_power(omega, m))
        rhs = form_wedge(form_wedge(d_poly(g), d_poly(f)),
                         form_power(omega, m - 1)).scale(m)
        assert lhs == rhs


def test_volume_is_omega_power_over_m_factorial():
    # vol comes from Pf(p); omega = P^{-1} from a dense inverse must give
    # the same vol = omega^m / m!, and p is degenerate exactly when P
    # has no inverse
    rng = random.Random(9090)
    degenerate = 0
    for _ in range(80):
        m = rng.randint(1, 4)
        p = Multivector(2 * m, 2, {
            (i, j): Poly.const(2 * m, Fraction(rng.randint(-2, 2),
                                               rng.randint(1, 3)))
            for i in range(2 * m) for j in range(i + 1, 2 * m)
            if rng.random() < 0.4})
        omega = oracle_omega(p)
        if omega is None:
            degenerate += 1
            with pytest.raises(DegenerateBivector):
                SymplecticContext(p)
            continue
        vol = SymplecticContext(p).vol
        assert vol == form_power(omega, m).scale(Fraction(1, factorial(m)))
        assert_normal_form(vol.coeff(range(p.n)).constant_term())
    assert 0 < degenerate < 80


def test_degenerate_rejected():
    p = bivector(4, {(0, 1): "1"})
    with pytest.raises(DegenerateBivector):
        SymplecticContext(p)


def test_odd_dimension_rejected():
    with pytest.raises(OddDimension):
        SymplecticContext(bivector(3, {(0, 1): "1"}))


def test_non_constant_rejected():
    with pytest.raises(NotConstantCoefficient):
        SymplecticContext(bivector(2, {(0, 1): "x0"}))


def permutation_det(m):
    """Reference oracle: the Leibniz expansion over all k! permutations."""
    from itertools import permutations
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        prod = Fraction(sort_sign(perm)[0])
        for r, c in enumerate(perm):
            prod *= m[r][c]
        total += prod
    return total


@pytest.mark.parametrize("p", [R2, R4, R4_SKEW, Q6])
def test_star_meets_its_defining_relation(p):
    # beta ^ star(alpha) = <alpha, beta>_k vol on every pair of basis
    # k-forms, with the pairing det[p(alpha_i, beta_j)] expanded over
    # permutations
    ctx = SymplecticContext(p)
    pmat = [[0] * p.n for _ in range(p.n)]
    for (i, j), c in p.terms.items():
        pmat[i][j], pmat[j][i] = c.constant_term(), -c.constant_term()
    for k in range(p.n + 1):
        basis = list(combinations(range(p.n), k))
        for alpha in basis:
            star = ctx.star(Form.basis(p.n, alpha))
            for beta in basis:
                minor = [[pmat[i][j] for j in beta] for i in alpha]
                want = ctx.vol.scale(permutation_det(minor))
                assert form_wedge(Form.basis(p.n, beta), star) == want, beta


def test_star_round_trips_on_q8_five_forms():
    p = bivector(8, {(0, 1): "1", (2, 3): "2", (4, 5): "-1/2",
                     (6, 7): "3", (0, 5): "1", (3, 6): "-1"})
    ctx = SymplecticContext(p)
    rng = rng_for(24)
    a = random_form(8, 5, rng, max_degree=1)
    assert a.grade == 5 and not a.is_zero()
    assert ctx.star(a).grade == 3
    assert ctx.star(ctx.star(a)) == a
