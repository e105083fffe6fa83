from fractions import Fraction

import pytest

from pforge.ratpoly import parse_poly
from pforge.forms import Form, form_wedge, form_d, delta
from pforge.multivec import sort_sign
from pforge.symplectic import (make_context, DegenerateBivector, OddDimension,
                               NotConstantCoefficient, _det)
from conftest import bivector, random_form, rng_for, assert_normal_form

R2 = bivector(2, {(0, 1): "1"})
R4 = bivector(4, {(0, 1): "1", (2, 3): "1"})
R4_SKEW = bivector(4, {(0, 1): "2", (2, 3): "-1/3", (0, 3): "1"})


@pytest.mark.parametrize("p", [R2, R4, R4_SKEW])
def test_star_is_an_involution(p):
    ctx = make_context(p)
    rng = rng_for(21)
    for _ in range(12):
        a = random_form(p.n, rng.randint(0, p.n), rng)
        assert ctx.star(ctx.star(a)) == a


@pytest.mark.parametrize("p", [R2, R4, R4_SKEW])
def test_star_one_and_volume(p):
    ctx = make_context(p)
    one = Form.from_poly(parse_poly("1", p.n))
    assert ctx.star(one) == ctx.vol
    assert ctx.star(ctx.vol) == one


@pytest.mark.parametrize("p", [R2, R4, R4_SKEW])
def test_delta_via_star_conjugation(p):
    # delta = (-1)^k star d star on k-forms
    ctx = make_context(p)
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
    ctx = make_context(p)
    m = p.n // 2
    rng = rng_for(23)
    from conftest import random_poly

    def omega_power(k):
        out = Form.from_poly(parse_poly("1", p.n))
        for _ in range(k):
            out = form_wedge(out, ctx.omega)
        return out

    for _ in range(8):
        f = random_poly(p.n, rng)
        g = random_poly(p.n, rng)
        lhs = form_wedge(Form.from_poly(pbracket_of(p, f, g)),
                         omega_power(m))
        rhs = form_wedge(form_wedge(d_poly(g), d_poly(f)),
                         omega_power(m - 1)).scale(m)
        assert lhs == rhs


def test_degenerate_rejected():
    p = bivector(4, {(0, 1): "1"})
    with pytest.raises(DegenerateBivector):
        make_context(p)


def test_odd_dimension_rejected():
    with pytest.raises(OddDimension):
        make_context(bivector(3, {(0, 1): "1"}))


def test_non_constant_rejected():
    with pytest.raises(NotConstantCoefficient):
        make_context(bivector(2, {(0, 1): "x0"}))


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


def test_det_matches_permutation_expansion():
    rng = rng_for(25)
    checked = 0

    def entry(integral):
        if rng.random() >= 0.6:
            return 0 if integral else Fraction(0)
        if integral:
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    # Fraction entries (some of them integral), then int entries, which
    # Bareiss keeps as ints throughout
    for integral in (False, True):
        for k in range(7):
            for _ in range(30):
                m = [[entry(integral) for _ in range(k)] for _ in range(k)]
                if k >= 2 and rng.random() < 0.3:
                    # a dependent row: the determinant must come out zero
                    r, s = rng.sample(range(k), 2)
                    m[r] = [2 * x for x in m[s]]
                got = _det(m)
                assert got == permutation_det(m), m
                assert_normal_form(got)
                if integral:
                    assert type(got) is int, (m, got)
                checked += 1
    assert checked == 420
    # a pivot swap flips the sign; integer entries stay exact ints
    assert _det([[0, 1], [1, 0]]) == -1
    assert_normal_form(_det([[0, 1], [1, 0]]))
    assert_normal_form(_det([[Fraction(1, 2), 1], [1, 4]]))
    assert _det([[Fraction(1, 2), 1], [1, 4]]) == 1


def test_star_round_trips_on_q8_five_forms():
    p = bivector(8, {(0, 1): "1", (2, 3): "2", (4, 5): "-1/2",
                     (6, 7): "3", (0, 5): "1", (3, 6): "-1"})
    ctx = make_context(p)
    rng = rng_for(24)
    a = random_form(8, 5, rng, max_degree=1)
    assert a.grade == 5 and not a.is_zero()
    assert ctx.star(a).grade == 3
    assert ctx.star(ctx.star(a)) == a
