"""Differential forms with polynomial coefficients.

The sparse basis-indexed storage of multivectors (`multivec.Graded`),
covariant side: a grade-k form maps strictly increasing tuples
(i1 < ... < ik), standing for dx_{i1}^...^dx_{ik}, to polynomial
coefficients.

Pairing is the determinant convention <dx_I, d_J> = delta_{IJ} on
increasing tuples, with no factorial factors; the interior product is
(i_u a)(y) = a(u ^ y) against that pairing.  The Koszul-Brylinski
boundary is the operator formula delta = i_p d - d i_p.

`form_d`, `interior` and `delta` run on packed monomials, as the
operators of `multivec` do (see its docstring): each packs its operands
once at the width of its result's degree bound, and `delta` composes
i_p d and d i_p at one width (deg p + deg a) with no unpacking in
between.  `form_bracket` adds its three terms into one accumulator.
"""

from .ratpoly import Poly
from .multivec import (Graded, Multivector, add_term, sort_sign,
                       GradeMismatch, check_bivector, wedge, _width, _degree,
                       _pack, _diff, _wedge)


class NonInvolutive(ValueError):
    """Bivector fails [p,p]=0 where involutivity is required."""


class Form(Graded):
    """Differential form: idx stands for dx_{i1}^...^dx_{ik}."""
    __slots__ = ()
    _symbol = "dx"


form_wedge = wedge


def _check_form(a):
    if not isinstance(a, Form):
        raise TypeError("%s operand where a Form is needed"
                        % type(a).__name__)


def _check_pair(a, u):
    """Raise unless a is a form and u a multivector over the same n."""
    _check_form(a)
    a._check(u, Multivector)


def form_d(a):
    """Exterior derivative; d(f dx_I) = sum_i (df/dx_i) dx_i ^ dx_I."""
    _check_form(a)
    w = _width(_degree(a))
    return Form.build(a.n, a.grade + 1, _form_d(a.n, _pack(a, w), w, {}), w)


def _form_d(n, pa, w, acc, scale=1):
    """Add scale * d of the packed form pa (width w) into acc."""
    for idx, c in pa.items():
        for i in range(n):
            if i not in idx:
                ci = _diff(c, i, w)
                if ci:
                    b = sum(j < i for j in idx)  # dx_i moves past b
                    add_term(acc, idx[:b] + (i,) + idx[b:],
                             -scale if b & 1 else scale, ci)
    return acc


def d_poly(p):
    """Differential of a polynomial as a 1-form."""
    return form_d(Form.from_poly(p))


def interior(u, a):
    """Interior product (i_u a)(y) = a(u ^ y); grade |a| - |u|."""
    _check_pair(a, u)
    if u.grade > a.grade:
        raise GradeMismatch("interior product needs |u| <= |form|")
    if u.grade == 0:
        return a.scale(u.as_poly())
    w = _width(_degree(u) + _degree(a))
    return Form.build(a.n, a.grade - u.grade,
                      _interior(_pack(u, w), _pack(a, w), {}), w)


def _interior(pu, pa, acc, scale=1):
    """Add scale * i_u a of packed u and a into acc; returns acc."""
    for iu, cu in pu.items():
        for ia, ca in pa.items():
            rest = tuple(i for i in ia if i not in iu)
            if len(rest) == len(ia) - len(iu):
                add_term(acc, rest, sort_sign(iu + rest)[0] * scale, cu, ca)
    return acc


def pair(a, u):
    """Total contraction of a grade-k form with a grade-k multivector."""
    _check_pair(a, u)
    if a.grade != u.grade:
        raise GradeMismatch("pairing needs equal grades")
    total = Poly.zero(a.n)
    for idx, c in a.terms.items():
        cu = u.terms.get(idx)
        if cu is not None:
            total = total + c * cu
    return total


def delta(p, a):
    """Koszul-Brylinski boundary delta = i_p d - d i_p; grade -1."""
    _check_pair(a, check_bivector(p))
    if a.grade == 0:
        return Form.zero(a.n, 0)
    w = _width(_degree(p) + _degree(a))
    return Form.build(a.n, a.grade - 1,
                      _delta(a.n, _pack(p, w), _pack(a, w), a.grade, w, {}),
                      w)


def _delta(n, pp, pa, grade, w, acc, scale=1):
    """Add scale * delta of the packed grade-`grade` form pa, for the
    packed bivector pp, into acc; returns acc.  Both terms are composed
    at width w without unpacking in between."""
    if grade:
        _interior(pp, _form_d(n, pa, w, {}), acc, scale)
        if grade >= 2:
            _form_d(n, _interior(pp, pa, {}), w, acc, -scale)
    return acc


def pbracket_of(p, f, g):
    """Poisson bracket {f,g} = i_p(df ^ dg) of the bivector p."""
    return pair(form_wedge(d_poly(f), d_poly(g)), p)


def form_bracket(p, a, b):
    """Graded bracket of forms: the failure of delta to be an
    antiderivation of the wedge,

        [a, b]_p = delta(a) ^ b + (-1)^|a| a ^ delta(b) - delta(a ^ b),

    of grade max(|a| + |b| - 1, 0).  The three terms are added into one
    packed accumulator at the width deg p + deg a + deg b."""
    _check_pair(a, check_bivector(p))
    _check_pair(b, p)
    n, ga, gb = a.n, a.grade, b.grade
    w = _width(_degree(p) + _degree(a) + _degree(b))
    pp, pa, pb = _pack(p, w), _pack(a, w), _pack(b, w)
    acc = _wedge(_delta(n, pp, pa, ga, w, {}), pb, {})
    _wedge(pa, _delta(n, pp, pb, gb, w, {}), acc, (-1) ** ga)
    _delta(n, pp, _wedge(pa, pb, {}), ga + gb, w, acc, -1)
    return Form.build(n, max(ga + gb - 1, 0), acc, w)


def lie_derivative(x, a):
    """L_X = i_X d + d i_X on forms, X a vector field."""
    if x.grade != 1:
        raise GradeMismatch("Lie derivative needs a vector field")
    first = interior(x, form_d(a))
    if a.grade == 0:
        return first
    return first + form_d(interior(x, a))
