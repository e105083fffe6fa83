from fractions import Fraction

import pytest

from pforge.ratpoly import Poly, parse_poly, DimensionMismatch
from pforge.multivec import Multivector, all_index_tuples, wedge
from pforge.forms import (Form, form_wedge, form_d, d_poly, interior, pair,
                          delta, form_bracket, lie_derivative)
from reference_routes import (delta_coordinate, form_bracket_composed,
                              form_bracket_karasev,
                              schouten_identity_residual)
from conftest import (bivector, random_form, random_multivector, random_poly,
                      rng_for)


def fm(n, grade, table):
    return Form(n, grade, {k: parse_poly(v, n) for k, v in table.items()})


def test_d_squared_zero():
    rng = rng_for(11)
    for _ in range(20):
        n = rng.randint(1, 3)
        a = random_form(n, rng.randint(0, n), rng)
        assert form_d(form_d(a)).is_zero()


def test_d_leibniz():
    rng = rng_for(12)
    for _ in range(15):
        n = 3
        a = random_form(n, rng.randint(0, 2), rng, max_degree=1)
        b = random_form(n, rng.randint(0, 2), rng, max_degree=1)
        lhs = form_d(form_wedge(a, b))
        rhs = form_wedge(form_d(a), b) + \
            form_wedge(a, form_d(b)).scale((-1) ** a.grade)
        assert lhs == rhs


def test_interior_antiderivation():
    rng = rng_for(13)
    for _ in range(15):
        n = 3
        x = random_multivector(n, 1, rng, max_degree=1)
        a = random_form(n, rng.randint(1, 2), rng, max_degree=1)
        b = random_form(n, rng.randint(1, 2), rng, max_degree=1)
        lhs = interior(x, form_wedge(a, b))
        rhs = form_wedge(interior(x, a), b) + \
            form_wedge(a, interior(x, b)).scale((-1) ** a.grade)
        assert lhs == rhs


def test_pair_duality():
    # <dx_i, d_j> = delta_ij extended multilinearly
    a = fm(2, 1, {(0,): "x1"})
    u = random_multivector(2, 1, rng_for(1))
    expect = a.terms[(0,)] * u.terms.get((0,), parse_poly("0", 2))
    assert pair(a, u) == expect


def test_delta_squares_to_zero_when_involutive():
    so3 = bivector(3, {(0, 1): "x2", (1, 2): "x0", (0, 2): "-x1"})
    rng = rng_for(14)
    for _ in range(10):
        a = random_form(3, rng.randint(0, 3), rng)
        assert delta(so3, delta(so3, a)).is_zero()


def test_delta_lowers_the_grade_by_one_even_when_zero():
    # delta of an exact 1-form vanishes; the zero is a 0-form
    so3 = bivector(3, {(0, 1): "x2", (1, 2): "x0", (0, 2): "-x1"})
    rng = rng_for(16)
    for k in range(1, 4):
        for a in (random_form(3, k, rng), form_d(random_form(3, k - 1, rng)),
                  Form.zero(3, k)):
            assert delta(so3, a).grade == k - 1
    closed = delta(so3, d_poly(parse_poly("x0^2 + x1*x2", 3)))
    assert closed.is_zero() and closed.grade == 0


def test_delta_anticommutes_with_d():
    # d delta + delta d = 0 holds identically, Jacobi or not
    p = bivector(3, {(0, 1): "1", (0, 2): "-x0"})
    rng = rng_for(15)
    for _ in range(10):
        a = random_form(3, rng.randint(0, 3), rng)
        assert (form_d(delta(p, a)) + delta(p, form_d(a))).is_zero()


def test_delta_matches_coordinate_expansion():
    so3 = bivector(3, {(0, 1): "x2", (1, 2): "x0", (0, 2): "-x1"})
    rng = rng_for(16)
    for _ in range(20):
        k = rng.randint(1, 3)
        a0 = random_poly(3, rng)
        rest = [random_poly(3, rng) for _ in range(k)]
        built = Form.from_poly(a0)
        for f in rest:
            built = form_wedge(built, d_poly(f))
        assert delta(so3, built) == delta_coordinate(so3, a0, rest)


def test_form_bracket_cross_check():
    so3 = bivector(3, {(0, 1): "x2", (1, 2): "x0", (0, 2): "-x1"})
    rng = rng_for(17)
    for _ in range(12):
        a = random_form(3, rng.randint(0, 2), rng, max_degree=1)
        b = random_form(3, rng.randint(0, 2), rng, max_degree=1)
        assert form_bracket(so3, a, b) == form_bracket_karasev(so3, a, b)


def _bracket_structures(n, rng):
    """A quadratic log-canonical p, {x_i, x_j} = l_ij x_i x_j, and a
    constant p on Q^n, with non-integral coefficients."""
    log = {(i, j): Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
           for i in range(n) for j in range(i + 1, n)}
    quad = Multivector(n, 2, {(i, j): Poly(n, {tuple(
        int(k in (i, j)) for k in range(n)): c}) for (i, j), c in log.items()})
    const = Multivector(n, 2, {(i, i + 1): Fraction(2 * i + 1, 3)
                               for i in range(0, n - 1, 2)})
    const = const + Multivector.basis(n, (0, n - 1), Fraction(-5, 2))
    return quad, const


def test_form_bracket_matches_the_composed_route():
    # every grade pair 0..n on Q^3-Q^6: equal terms and equal grades,
    # since Graded.__eq__ takes zeros of different grades as equal
    rng = rng_for(2701)
    for n in range(3, 7):
        for p in _bracket_structures(n, rng):
            for ga in range(n + 1):
                for gb in range(n + 1):
                    a = random_form(n, ga, rng, max_degree=1).scale(
                        Fraction(rng.randint(1, 5), rng.randint(2, 3)))
                    b = random_form(n, gb, rng, max_degree=1)
                    got = form_bracket(p, a, b)
                    want = form_bracket_composed(p, a, b)
                    assert got == want, (n, ga, gb)
                    assert got.grade == want.grade == max(ga + gb - 1, 0)


def test_form_bracket_on_exact_one_forms():
    # [df, dg] = d{f, g}
    plane = bivector(2, {(0, 1): "1"})
    f = parse_poly("x0^2", 2)
    g = parse_poly("x1", 2)
    from pforge.forms import pbracket_of
    assert form_bracket(plane, d_poly(f), d_poly(g)) == \
        d_poly(pbracket_of(plane, f, g))


def test_lie_derivative_cartan():
    rng = rng_for(18)
    for _ in range(10):
        x = random_multivector(3, 1, rng, max_degree=1)
        a = random_form(3, rng.randint(0, 2), rng, max_degree=1)
        assert lie_derivative(x, form_d(a)) == form_d(lie_derivative(x, a))


def test_schouten_identity_residual_zero():
    rng = rng_for(19)
    count = 0
    while count < 30:
        n = rng.randint(2, 3)
        m = rng.randint(1, 2)
        k = rng.randint(1, 2)
        if m + k - 1 > n:
            continue
        u = random_multivector(n, m, rng, max_degree=1)
        v = random_multivector(n, k, rng, max_degree=1)
        w = random_form(n, m + k - 1, rng, max_degree=1)
        assert schouten_identity_residual(w, u, v).is_zero()
        count += 1


def test_coefficient_over_wrong_n_is_rejected():
    with pytest.raises(DimensionMismatch):
        Form(3, 1, {(0,): Poly.const(4, 1)})


def test_interior_is_adjoint_to_wedge():
    # the defining relation (i_u a)(y) = a(u ^ y) on every basis y
    rng = rng_for(17)
    n = 4
    for _ in range(20):
        j = rng.randint(1, 3)
        k = rng.randint(j, 4)
        u = random_multivector(n, j, rng, max_degree=1)
        a = random_form(n, k, rng, max_degree=1)
        ia = interior(u, a)
        for idx in all_index_tuples(n, k - j):
            y = Multivector.basis(n, idx)
            assert pair(ia, y) == pair(a, wedge(u, y))


_U, _A = Multivector.basis(2, (0,)), Form.basis(2, (1,))


@pytest.mark.parametrize("op", [
    lambda x, y: x + y, lambda x, y: x - y, wedge, lambda x, y: x == y],
    ids=["add", "sub", "wedge", "eq"])
def test_mixed_kinds_are_rejected(op):
    with pytest.raises(TypeError):
        op(_U, _A)
    with pytest.raises(TypeError):
        op(_A, _U)


def test_interior_needs_a_multivector_and_a_form():
    top = Form.basis(2, (0, 1))
    assert interior(_U, top) == Form.basis(2, (1,))
    for u, a in ((Form.basis(2, (0,)), top),
                 (_U, Multivector.basis(2, (0, 1))), (top, _U)):
        with pytest.raises(TypeError):
            interior(u, a)


def test_pair_needs_a_form_and_a_multivector():
    assert pair(Form.basis(2, (0,)), _U) == Poly.const(2, 1)
    for a, u in ((_U, Form.basis(2, (0,))), (_A, _A), (_U, _U)):
        with pytest.raises(TypeError):
            pair(a, u)


def test_d_and_lie_derivative_need_a_form():
    # d of the derivation d0 used to read it as dx0 and return -dx0^dx1
    u = Multivector(2, 1, {(0,): parse_poly("x1", 2)})
    x = Multivector.basis(2, (1,))
    message = "Multivector operand where a Form is needed"
    with pytest.raises(TypeError, match=message):
        form_d(u)
    for a in (u, Multivector.from_poly(parse_poly("x0", 2))):
        with pytest.raises(TypeError, match=message):
            lie_derivative(x, a)
    with pytest.raises(TypeError, match=message):
        interior(x, u)
    assert form_d(Form.from_poly(parse_poly("x0", 2))) == Form.basis(2, (0,))


def test_equality_with_a_non_container_is_false():
    assert (Multivector.zero(2, 1) == 0) is False
    assert Form.zero(2, 0) != "0"
