"""Differential forms with polynomial coefficients.

The sparse basis-indexed storage of multivectors (`multivec.Graded`),
covariant side: a grade-k form maps strictly increasing tuples
(i1 < ... < ik), standing for dx_{i1}^...^dx_{ik}, to polynomial
coefficients.

Pairing is the determinant convention <dx_I, d_J> = delta_{IJ} on
increasing tuples, with no factorial factors; the interior product is
(i_u a)(y) = a(u ^ y) against that pairing.  The Koszul-Brylinski
boundary is the operator formula delta = i_p d - d i_p; the coordinate
expansion on a0*da1^...^dak is kept as an independent cross-check.

`form_d`, `interior` and `delta` run on packed monomials, as the
operators of `multivec` do (see its docstring): each packs its operands
once at the width of its result's degree bound, and `delta` composes
i_p d and d i_p at one width (deg p + deg a) with no unpacking in
between.
"""

from .ratpoly import Poly
from .multivec import (Graded, Multivector, add_term, sort_sign,
                       GradeMismatch, wedge, jacobiator, _width, _degree,
                       _pack, _diff)


class NonInvolutive(ValueError):
    """Bivector fails [p,p]=0 where involutivity is required."""


class Form(Graded):
    """Differential form: idx stands for dx_{i1}^...^dx_{ik}."""
    __slots__ = ()
    _symbol = "dx"


form_wedge = wedge


def _check_pair(a, u):
    """Raise unless a is a form and u a multivector over the same n."""
    if not isinstance(a, Form):
        raise TypeError("%s operand where a Form is needed"
                        % type(a).__name__)
    a._check(u, Multivector)


def form_d(a):
    """Exterior derivative; d(f dx_I) = sum_i (df/dx_i) dx_i ^ dx_I."""
    w = _width(_degree(a))
    return Form.build(a.n, a.grade + 1, _form_d(a.n, _pack(a, w), w, {}), w)


def _form_d(n, pa, w, acc, scale=1):
    """Add scale * d of the packed form pa (width w) into acc."""
    for idx, c in pa.items():
        for i in range(n):
            if i not in idx:
                ci = _diff(c, i, w)
                if ci:
                    add_term(acc, (i,) + idx, scale, ci)
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


def _interior(pu, pa, acc):
    """Add i_u a of packed u and a into acc; returns acc."""
    for iu, cu in pu.items():
        for ia, ca in pa.items():
            rest = tuple(i for i in ia if i not in iu)
            if len(rest) == len(ia) - len(iu):
                add_term(acc, rest, sort_sign(iu + rest)[0], cu, ca)
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


def _interior_p(p, a):
    """i_p with the grade-0/1 edge cases sent to zero (delta's contract)."""
    if a.grade < 2:
        return Form.zero(a.n, max(a.grade - 2, 0))
    return interior(p, a)


def delta(p, a, require_involutive=False):
    """Koszul-Brylinski boundary delta = i_p d - d i_p; grade -1."""
    if p.grade != 2:
        raise GradeMismatch("p must be a bivector (grade 2)")
    _check_pair(a, p)
    if require_involutive and not jacobiator(p).is_zero():
        raise NonInvolutive("bivector is not involutive; delta^2 = 0 fails")
    if a.grade == 0:
        return Form.zero(a.n, 0)
    w = _width(_degree(p) + _degree(a))
    return Form.build(a.n, a.grade - 1,
                      _delta(a.n, _pack(p, w), _pack(a, w), a.grade, w), w)


def _delta(n, pp, pa, grade, w):
    """delta of the packed grade-`grade` form pa, for the packed
    bivector pp, as a fresh packed accumulator; both terms are composed
    at width w without unpacking in between."""
    if grade == 0:
        return {}
    acc = _interior(pp, _form_d(n, pa, w, {}), {})
    if grade >= 2:
        _form_d(n, _interior(pp, pa, {}), w, acc, -1)
    return acc


def pbracket_of(p, f, g):
    """Poisson bracket {f,g} = i_p(df ^ dg) of the bivector p."""
    return pair(form_wedge(d_poly(f), d_poly(g)), p)


def delta_coordinate(p, a0, rest):
    """Coordinate expansion of delta on a0 * d(a1)^...^d(ak).

    Independent of `delta`; used as a cross-check, per the classical
    two-sum expansion in terms of Poisson brackets of the factors.
    """
    n = a0.n
    k = len(rest)
    if k == 0:
        return Form.zero(n, 0)
    out = Form.zero(n, k - 1)
    for i in range(1, k + 1):
        br = pbracket_of(p, a0, rest[i - 1])
        factors = [d_poly(rest[j - 1]) for j in range(1, k + 1) if j != i]
        w = Form.from_poly(br * ((-1) ** (i + 1)))
        for f in factors:
            w = form_wedge(w, f)
        out = out + w
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            br = pbracket_of(p, rest[i - 1], rest[j - 1])
            w = Form.from_poly(a0 * ((-1) ** (i + j)))
            w = form_wedge(w, d_poly(br))
            for t in range(1, k + 1):
                if t != i and t != j:
                    w = form_wedge(w, d_poly(rest[t - 1]))
            out = out + w
    return out


def form_bracket(p, a, b):
    """Graded bracket of forms: the failure of delta to be an
    antiderivation of the wedge."""
    da = delta(p, a)
    db = delta(p, b)
    return (form_wedge(da, b) + form_wedge(a, db).scale((-1) ** a.grade)
            - delta(p, form_wedge(a, b)))


def form_bracket_karasev(p, a, b):
    """Equivalent definition through the bilinear pairing
    P(a,b) = i_p(a^b) - (i_p a)^b - a^(i_p b); cross-check route."""
    def P(x, y):
        return (_interior_p(p, form_wedge(x, y))
                - form_wedge(_interior_p(p, x), y)
                - form_wedge(x, _interior_p(p, y)))
    return (form_d(P(a, b)) - P(form_d(a), b)
            - P(a, form_d(b)).scale((-1) ** a.grade))


def lie_derivative(x, a):
    """L_X = i_X d + d i_X on forms, X a vector field."""
    if x.grade != 1:
        raise GradeMismatch("Lie derivative needs a vector field")
    first = interior(x, form_d(a))
    if a.grade == 0:
        return first
    return first + form_d(interior(x, a))


def schouten_identity_residual(omega, u, v):
    """Residual of the invariant bracket identity

        omega([u,v]) = (-1)^((m+1) n) (d i_v omega)(u)
                       + (-1)^m (d i_u omega)(v) - (d omega)(u ^ v)

    for |omega| = |u| + |v| - 1.  Contract: identically zero.
    """
    from .multivec import schouten
    m, k = u.grade, v.grade
    if omega.grade != m + k - 1:
        raise GradeMismatch("need |omega| = |u| + |v| - 1")
    def d_int_paired(x, w, y):
        # (d i_x w)(y), zero when |x| exceeds |w|
        if x.grade > w.grade:
            return Poly.zero(w.n)
        return pair(form_d(interior(x, w)), y)

    lhs = pair(omega, schouten(u, v))
    t1 = d_int_paired(v, omega, u) * ((-1) ** ((m + 1) * k))
    t2 = d_int_paired(u, omega, v) * ((-1) ** m)
    t3 = pair(form_d(omega), wedge(u, v))
    return lhs - (t1 + t2 - t3)
