from fractions import Fraction
from itertools import product

import pytest

from pforge.ratpoly import Poly, parse_poly
from pforge.multivec import (Multivector, wedge, schouten, lichnerowicz_dp,
                             jacobiator, sort_sign, GradeMismatch)
from pforge.forms import Form, delta
from pforge.analysis import sharp, casimir_basis
from pforge.homology import (block_matrix, poisson_cohomology_dims,
                             canonical_homology_dims, LICHNEROWICZ)
from pforge.symplectic import SymplecticContext
from reference_routes import vf_bracket, evaluate_on_functions
from conftest import bivector, random_multivector, rng_for


def mv(n, grade, table):
    return Multivector(n, grade, {k: parse_poly(v, n) for k, v in table.items()})


def test_packed_operators_store_integral_coefficients_as_ints():
    # 1/2 x0 d0 ^ 2 x1 d1 = x0 x1 d0^d1: the packed accumulator holds
    # Fraction(1, 1), which `Graded.build` stores as 1
    u = Multivector(2, 1, {(0,): Poly(2, {(1, 0): Fraction(1, 2)})})
    v = Multivector(2, 1, {(1,): Poly(2, {(0, 1): 2})})
    got = wedge(u, v).terms[(0, 1)].terms
    assert got == {(1, 1): 1} and type(got[(1, 1)]) is int


def test_wedge_graded_commutativity():
    rng = rng_for(5)
    for _ in range(20):
        n = rng.randint(1, 3)
        a = random_multivector(n, rng.randint(0, n), rng)
        b = random_multivector(n, rng.randint(0, n), rng)
        sign = Fraction((-1) ** (a.grade * b.grade))
        assert wedge(a, b) == wedge(b, a).scale(sign)


def test_vf_bracket_matches_schouten_on_fields():
    rng = rng_for(6)
    for _ in range(15):
        n = rng.randint(1, 3)
        x = random_multivector(n, 1, rng)
        y = random_multivector(n, 1, rng)
        assert vf_bracket(x, y) == schouten(x, y)


def test_schouten_grade_zero_is_directional_derivative():
    x = mv(2, 1, {(0,): "x1", (1,): "-x0"})
    g = mv(2, 0, {(): "x0^2"})
    assert schouten(x, g) == mv(2, 0, {(): "2*x0*x1"})
    assert schouten(g, x) == schouten(x, g)


def test_schouten_leibniz_rule():
    # [u, v ^ w] = [u, v] ^ w + (-1)^((m-1)|v|) v ^ [u, w], m = |u|
    rng = rng_for(7)
    for _ in range(15):
        n = 3
        m = rng.randint(1, 2)
        u = random_multivector(n, m, rng, max_degree=1)
        v = random_multivector(n, 1, rng, max_degree=1)
        w = random_multivector(n, 1, rng, max_degree=1)
        lhs = schouten(u, wedge(v, w))
        rhs = wedge(schouten(u, v), w) + \
            wedge(v, schouten(u, w)).scale(Fraction((-1) ** ((m - 1) * 1)))
        assert lhs == rhs


def test_jacobiator_catalog():
    assert jacobiator(bivector(2, {(0, 1): "1"})).is_zero()
    so3 = bivector(3, {(0, 1): "x2", (1, 2): "x0", (0, 2): "-x1"})
    assert jacobiator(so3).is_zero()
    sl2 = bivector(3, {(0, 1): "2*x1", (0, 2): "-2*x2", (1, 2): "x0"})
    assert jacobiator(sl2).is_zero()


def test_jacobiator_non_example():
    p = bivector(3, {(0, 1): "1", (0, 2): "-x0"})
    assert jacobiator(p) == mv(3, 3, {(0, 1, 2): "2"})


def test_dp_squares_to_zero():
    so3 = bivector(3, {(0, 1): "x2", (1, 2): "x0", (0, 2): "-x1"})
    rng = rng_for(8)
    for _ in range(10):
        u = random_multivector(3, rng.randint(0, 2), rng)
        assert lichnerowicz_dp(so3, lichnerowicz_dp(so3, u)).is_zero()


def test_evaluate_on_functions_is_poisson_bracket():
    p = bivector(2, {(0, 1): "1"})
    f = parse_poly("x0^2", 2)
    g = parse_poly("x1", 2)
    assert evaluate_on_functions(p, [f, g]) == parse_poly("2*x0", 2)


def test_grade_mismatch():
    with pytest.raises(GradeMismatch):
        Multivector(2, 1, {(0, 1): Poly.const(2, Fraction(1))})


def test_brackets_refuse_form_operands():
    from pforge.forms import Form
    n = 2
    a = Form(n, 1, {(0,): parse_poly("x0", n), (1,): parse_poly("x1", n)})
    b = Form(n, 2, {(0, 1): parse_poly("x0", n)})
    u = mv(n, 1, {(0,): "x1"})
    p = mv(n, 2, {(0, 1): "x0"})
    for call in (lambda: schouten(a, a), lambda: schouten(u, a),
                 lambda: schouten(a, u), lambda: jacobiator(b),
                 lambda: lichnerowicz_dp(b, u), lambda: lichnerowicz_dp(p, a)):
        with pytest.raises(TypeError, match="Form operand where a "
                                            "Multivector is needed"):
            call()


_N = 3
_TWO_FORM = Form(_N, 2, {k: parse_poly(v, _N) for k, v in
                         {(0, 1): "x2", (0, 2): "-x1", (1, 2): "x0"}.items()})
_THREE_VECTOR = mv(_N, 3, {(0, 1, 2): "x0"})
_U, _A = mv(_N, 1, {(0,): "x1"}), Form(_N, 1, {(2,): parse_poly("x0", _N)})


@pytest.mark.parametrize("entry", [
    lambda p: lichnerowicz_dp(p, _U),
    jacobiator,
    lambda p: delta(p, _A),
    lambda p: sharp(p, _A),
    lambda p: casimir_basis(p, 2),
    lambda p: block_matrix(p, LICHNEROWICZ, 0, 1),
    lambda p: poisson_cohomology_dims(p, 1, 1),
    lambda p: canonical_homology_dims(p, 1, 1),
    SymplecticContext,
], ids=["lichnerowicz_dp", "jacobiator", "delta", "sharp", "casimir_basis",
        "block_matrix", "poisson_cohomology_dims", "canonical_homology_dims",
        "SymplecticContext"])
def test_every_bivector_entry_checks_its_bivector(entry):
    with pytest.raises(TypeError, match="Form operand where a "
                                        "Multivector is needed"):
        entry(_TWO_FORM)
    with pytest.raises(GradeMismatch, match="bivector"):
        entry(_THREE_VECTOR)


# -- reference oracle: the full double sum over simple factors ---------
#
# The route `schouten` used before it kept only the (a, 0) and (0, b)
# pairs: split each basis term into simple fields, the coefficient on
# the first one, and bracket every pair of factors.

def _factors(idx, coeff, n):
    return [(i, coeff if pos == 0 else Poly.const(n, 1))
            for pos, i in enumerate(idx)]


def _simple_bracket(a, b, n):
    """[f*d_i, g*d_j] = f g_i d_j - g f_j d_i as a grade-1 multivector."""
    (i, f), (j, g) = a, b
    return (Multivector.basis(n, (j,), f * g.diff(i))
            - Multivector.basis(n, (i,), g * f.diff(j)))


def _wedge_simple(fields, n):
    coeff = Poly.const(n, 1)
    for _, c in fields:
        coeff = coeff * c
    sign, idx = sort_sign([i for i, _ in fields])
    if not sign:
        return Multivector.zero(n, len(fields))
    return Multivector.basis(n, idx, coeff * sign)


def double_sum_schouten(u, v):
    n, m, k = u.n, u.grade, v.grade
    if m == 0 and k == 0:
        return Multivector.zero(n, 0)
    if m == 0:
        return double_sum_schouten(v, u)
    out = Multivector.zero(n, m + k - 1)
    for iu, cu in u.terms.items():
        uf = _factors(iu, cu, n)
        if k == 0:
            g = v.as_poly()
            for a in range(m):
                di, ca = uf[a]
                lead = ca * g.diff(di) * ((-1) ** a)
                out = out + _wedge_simple(uf[:a] + uf[a + 1:], n).scale(lead)
            continue
        for iv, cv in v.terms.items():
            vf = _factors(iv, cv, n)
            for a, b in product(range(m), range(k)):
                piece = wedge(_simple_bracket(uf[a], vf[b], n),
                              _wedge_simple(uf[:a] + uf[a + 1:]
                                            + vf[:b] + vf[b + 1:], n))
                out = out + piece.scale((-1) ** (m + a + b + 1))
    return out


def test_schouten_matches_double_sum_oracle():
    rng = rng_for(11)
    pairs = 0
    for n, m, k, _ in product(range(3, 6), range(4), range(4), range(5)):
        u = random_multivector(n, m, rng, max_degree=2)
        v = random_multivector(n, k, rng, max_degree=2)
        want = double_sum_schouten(u, v)
        got = schouten(u, v)
        assert got == want and got.grade == want.grade, (u, v)
        pairs += 1
    assert pairs == 240

