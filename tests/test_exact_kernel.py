"""The integer-first kernel against the Fraction-only reference.

Operands are seeded and mix integral and non-integral coefficients, so
int-with-int, int-with-Fraction and Fraction-with-Fraction products all
occur, as do sums that cancel and products such as (1/2)*2 that come
out integral.  Every result must equal the reference value and keep the
coefficient invariant: each stored coefficient is a nonzero `int` or
`Fraction`, never a float, a bool or a zero.
"""

from fractions import Fraction

import pytest

import fraction_reference as ref
from conftest import rng_for
from pforge.ratpoly import Poly
from pforge import multivec
from pforge.multivec import (Multivector, wedge, schouten, jacobiator,
                             all_index_tuples, _pack)
from pforge.forms import Form, form_d, interior, delta

COEFFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4),
          Fraction(-5, 2), Fraction(4), Fraction(-6, 3)]


def mixed_poly(n, rng, max_degree=2, terms=3):
    acc = {}
    for _ in range(terms):
        e = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(n)] += 1
        acc[tuple(e)] = acc.get(tuple(e), 0) + rng.choice(COEFFS)
    return Poly(n, acc)


def mixed_graded(cls, n, grade, rng, max_degree=2):
    terms = {}
    for idx in all_index_tuples(n, grade):
        if rng.random() < 0.75:
            terms[idx] = mixed_poly(n, rng, max_degree)
    return cls(n, grade, terms)


def assert_exact(p):
    for c in p.terms.values():
        assert type(c) in (int, Fraction) and c != 0, (p, c)


def assert_graded_exact(u):
    for c in u.terms.values():
        assert c.terms, u
        assert_exact(c)


def assert_same(u, want):
    """u (Graded) holds the values of the reference result want."""
    assert_graded_exact(u)
    assert ref.graded_values(u.terms) == ref.graded_values(want)


def test_constructor_stores_integral_values_as_int():
    p = Poly(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2),
                 (0, 0): 3, (2, 0): True, (0, 2): Fraction(0)})
    assert {e: type(c) for e, c in p.terms.items()} == {
        (1, 0): int, (0, 1): Fraction, (0, 0): int, (2, 0): int}
    assert_exact(p)
    assert_exact(Poly.const(3, Fraction(6, 3)))
    assert Poly.const(3, 0).is_zero()


def test_ring_operations_match_the_reference():
    rng = rng_for(71)
    for _ in range(300):
        n = rng.randint(1, 4)
        p, q = mixed_poly(n, rng), mixed_poly(n, rng)
        rp, rq = ref.from_poly(p), ref.from_poly(q)
        k = rng.choice(COEFFS + [0])
        cases = [(p + q, rp + rq), (p - q, rp - rq), (p * q, rp * rq),
                 (-p, -rp), (p * k, rp * k), (k * p, rp * k),
                 (p + k, rp + ref.FracPoly(n, {(0,) * n: k})),
                 (p - k, rp - ref.FracPoly(n, {(0,) * n: k}))]
        cases += [(p.diff(i), rp.diff(i)) for i in range(n)]
        for got, want in cases:
            assert_exact(got)
            assert ref.values(got.terms) == ref.values(want.terms)


def test_cancellation_and_integral_products():
    rng = rng_for(72)
    for _ in range(100):
        n = rng.randint(1, 4)
        p, q = mixed_poly(n, rng), mixed_poly(n, rng)
        for zero in (p - p, p + (-p), p * q - q * p, (p + q) - q - p,
                     p * 0, p * Fraction(0)):
            assert zero.is_zero() and zero.terms == {}
    half, two = Poly(2, {(1, 0): Fraction(1, 2)}), Poly(2, {(0, 1): 2})
    prod = half * two
    assert prod == Poly(2, {(1, 1): 1}) and prod.terms == {(1, 1): 1}
    assert_exact(prod)
    thirds = Poly(1, {(1,): Fraction(1, 3)}) + Poly(1, {(1,): Fraction(2, 3)})
    assert thirds == Poly.var(1, 0)
    assert_exact(thirds)
    ints = Poly(2, {(1, 0): 3, (0, 1): -2}) * Poly(2, {(1, 0): 5, (0, 0): 7})
    assert all(type(c) is int for c in ints.terms.values())


def test_graded_operators_match_the_reference():
    rng = rng_for(73)
    for _ in range(60):
        n = rng.randint(2, 4)
        m, k = rng.randint(0, n), rng.randint(0, n)
        u = mixed_graded(Multivector, n, m, rng)
        v = mixed_graded(Multivector, n, k, rng)
        ru, rv = ref.from_graded(u), ref.from_graded(v)
        assert_same(wedge(u, v), ref.wedge(n, ru, rv))
        if m + k >= 1:
            assert_same(schouten(u, v), ref.schouten(n, m, ru, rv))
        a = mixed_graded(Form, n, rng.randint(0, n), rng)
        ra = ref.from_graded(a)
        assert_same(form_d(a), ref.form_d(n, ra))
        if m <= a.grade:
            assert_same(interior(u, a), ref.interior(n, ru, ra))
        p = mixed_graded(Multivector, n, 2, rng)
        assert_same(delta(p, a), ref.delta(n, ref.from_graded(p), ra, a.grade))


def test_graded_operators_cancel_to_zero():
    rng = rng_for(74)
    for _ in range(30):
        n = rng.randint(2, 4)
        u = mixed_graded(Multivector, n, rng.randint(1, n), rng)
        a = mixed_graded(Form, n, rng.randint(0, n - 1), rng)
        for zero in (u - u, form_d(form_d(a)),
                     schouten(u, u) - schouten(u, u),
                     wedge(u, u) if u.grade % 2 else u + (-u)):
            assert zero.is_zero() and zero.terms == {}


@pytest.mark.parametrize("grade", [1, 2, 3])
def test_scaling_by_fractions_keeps_the_invariant(grade):
    rng = rng_for(75 + grade)
    u = mixed_graded(Form, 4, grade, rng)
    for s in (Fraction(1, 2), Fraction(2), 3, -1, Fraction(-4, 6)):
        got = u.scale(s)
        assert_same(got, {i: c * s for i, c in ref.from_graded(u).items()})
    assert u.scale(0).is_zero()


# -- packed monomials ---------------------------------------------------
#
# The graded operators pack each exponent tuple into one int, w bits per
# variable, with w the bit length of the result's degree bound.  These
# cases put exponents on that bound, far past one byte, and on n = 1 and
# n = 9, where a carry out of one variable would land in the next.


def high_poly(n, rng, lo, hi, terms=2):
    """Terms with a few large exponents and a mixed coefficient."""
    acc = {}
    for _ in range(terms):
        e = [0] * n
        for i in rng.sample(range(n), rng.randint(1, min(n, 3))):
            e[i] = rng.randint(lo, hi)
        acc[tuple(e)] = acc.get(tuple(e), 0) + rng.choice(COEFFS)
    return Poly(n, acc)


def high_graded(cls, n, grade, rng, lo, hi, every=1):
    return cls(n, grade, {idx: high_poly(n, rng, lo, hi)
                          for k, idx in enumerate(all_index_tuples(n, grade))
                          if k % every == 0})


def check_operators(n, u, v, a, p):
    """Every packed operator on these operands against the reference."""
    ru, rv, ra, rp = map(ref.from_graded, (u, v, a, p))
    m, k = u.grade, v.grade
    assert_same(wedge(u, v), ref.wedge(n, ru, rv))
    if m + k >= 1:
        assert_same(schouten(u, v), ref.schouten(n, m, ru, rv))
    assert_same(form_d(a), ref.form_d(n, ra))
    if m <= a.grade:
        assert_same(interior(u, a), ref.interior(n, ru, ra))
    assert_same(delta(p, a), ref.delta(n, rp, ra, a.grade))


def test_width_is_the_bit_length_of_the_degree_bound():
    from pforge.multivec import _width
    assert [_width(d) for d in (0, 1, 2, 3, 255, 256, 511, 512)] == \
        [1, 1, 2, 2, 8, 9, 9, 10]


def test_exponent_on_the_width_bound():
    # x0^128 * x0^128: degree bound 256, so w = 9 and the product's
    # exponent 256 = 2**8 fills the top bit of its field exactly
    from pforge.multivec import _width
    assert _width(128 + 128) == 9
    for n in (1, 2, 9):
        x128 = Poly.var(n, 0, 128)
        u = Multivector(n, 1, {(0,): x128 * Fraction(1, 2)})
        a = Form(n, 1, {(0,): x128 * 3})
        got = interior(u, a)
        assert got.terms == {(): Poly(n, {(256,) + (0,) * (n - 1):
                                          Fraction(3, 2)})}
        assert_same(got, ref.interior(n, ref.from_graded(u),
                                      ref.from_graded(a)))
        if n > 1:
            # a carry out of x0's field would turn x0^256 into x1
            v = Multivector(n, 1, {(n - 1,): Poly.var(n, 0, 128)})
            w = wedge(u, v)
            assert w.terms == {(0, n - 1): Poly(
                n, {(256,) + (0,) * (n - 1): Fraction(1, 2)})}
            ds = schouten(Multivector(n, 1, {(0,): Poly.var(n, 0, 129)}),
                          Multivector(n, 0, {(): Poly.var(n, 0, 128)}))
            assert ds.terms == {(): Poly(n, {(256,) + (0,) * (n - 1): 128})}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_large_exponents_match_the_reference(n):
    rng = rng_for(76 + n)
    for _ in range(8):
        m, k = rng.randint(0, n), rng.randint(0, n)
        u = high_graded(Multivector, n, m, rng, 256, 700)
        v = high_graded(Multivector, n, k, rng, 0, 300)
        a = high_graded(Form, n, rng.randint(0, n), rng, 200, 520)
        p = high_graded(Multivector, n, 2, rng, 250, 260)
        check_operators(n, u, v, a, p)


def test_nine_variables_match_the_reference():
    # sparse operands on Q^9: every other basis tuple, low and high
    # exponents mixed, so neighbouring fields of a packed monomial fill
    n = 9
    rng = rng_for(80)
    for lo, hi in ((0, 3), (120, 140), (250, 300)):
        for _ in range(3):
            m, k = rng.randint(0, 2), rng.randint(1, 2)
            u = high_graded(Multivector, n, m, rng, lo, hi, every=5)
            v = high_graded(Multivector, n, k, rng, lo, hi, every=7)
            a = high_graded(Form, n, rng.randint(1, 3), rng, lo, hi,
                            every=9)
            p = high_graded(Multivector, n, 2, rng, lo, hi, every=6)
            check_operators(n, u, v, a, p)


# -- one first-sum kernel -------------------------------------------------
#
# schouten runs S(u, v) = sum_a (-1)^a f dg/dx_{I_a} d_{I-I_a} ^ d_J as
# [u, v] = S(u, v) + (-1)^(m k) S(v, u), and once, as (1 + (-1)^m) S(u, u),
# when both operands are one element.  The reference is the two-sum
# formula.


def sparse_multivector(n, grade, rng, terms=6):
    idxs = all_index_tuples(n, grade)
    return Multivector(n, grade, {idx: mixed_poly(n, rng)
                                  for idx in rng.sample(idxs,
                                                        min(terms, len(idxs)))})


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_self_bracket_matches_the_two_sum_reference(n):
    rng = rng_for(90 + n)
    for m in range(min(n, 4) + 1):
        for _ in range(3):
            u = sparse_multivector(n, m, rng)
            twin = Multivector(n, m, dict(u.terms))
            ru = ref.from_graded(u)
            want = ref.schouten(n, m, ru, ru)
            if m % 2:
                # odd grade: the two sums of [u, u] cancel
                assert ref.graded_values(want) == {}
                assert schouten(u, u).is_zero()
            for got in (schouten(u, u), schouten(u, twin)):
                assert_same(got, want)
                assert got.grade == max(2 * m - 1, 0)
            if m == 2:
                assert_same(jacobiator(u), want)
            k = rng.randint(0, min(n, 4))
            v = sparse_multivector(n, k, rng)
            if m + k:
                assert_same(schouten(u, v),
                            ref.schouten(n, m, ru, ref.from_graded(v)))


def test_grouped_derivatives_that_cancel_leave_no_zero():
    # f d0^d1 against g1 d1^d2 + g2 d0^d2: the pairs (a=1, d1^d2) and
    # (a=0, d0^d2) land on d0^d1^d2 with -dg1/dx1 - dg2/dx0, which
    # cancels in the x3 terms and leaves -x2/2 from the x0*x2 term of g2
    n = 4
    f = Poly(n, {(0, 0, 0, 2): 3})
    g1 = Poly(n, {(0, 1, 0, 1): -1, (0, 0, 0, 1): 5})
    g2 = Poly(n, {(1, 0, 0, 1): 1, (1, 0, 1, 0): Fraction(1, 2)})
    u = Multivector(n, 2, {(0, 1): f})
    v = Multivector(n, 2, {(1, 2): g1, (0, 2): g2})
    w = multivec._width(4)
    acc = multivec._schouten(_pack(u, w), _pack(v, w), w, {}, 1)
    assert all(c for terms in acc.values() for c in terms.values())
    got = Multivector.build(n, 3, acc, w)
    assert got.terms == {(0, 1, 2): Poly(n, {(0, 0, 1, 2): Fraction(-3, 2)})}
    # a group that cancels outright adds nothing at all
    v = Multivector(n, 2, {(1, 2): Poly(n, {(0, 1, 0, 1): -1}),
                           (0, 2): Poly(n, {(1, 0, 0, 1): 1})})
    assert multivec._schouten(_pack(u, w), _pack(v, w), w, {}, 1) == {}
    assert_same(schouten(u, v), ref.schouten(n, 2, ref.from_graded(u),
                                             ref.from_graded(v)))


def test_self_bracket_runs_the_kernel_once(monkeypatch):
    calls = []
    real = multivec._schouten

    def counted(pu, pv, w, acc, scale=1):
        calls.append(scale)
        return real(pu, pv, w, acc, scale)
    monkeypatch.setattr(multivec, "_schouten", counted)
    rng = rng_for(99)
    p = sparse_multivector(4, 2, rng)
    u = sparse_multivector(4, 3, rng)
    twin = Multivector(4, 2, dict(p.terms))
    for run, scales in ((lambda: jacobiator(p), [2]),
                        (lambda: schouten(p, p), [2]),
                        (lambda: schouten(u, u), []),
                        (lambda: schouten(p, twin), [1, 1]),
                        (lambda: schouten(p, u), [1, 1]),
                        (lambda: schouten(u, u.scale(2)), [1, -1])):
        del calls[:]
        run()
        assert calls == scales
