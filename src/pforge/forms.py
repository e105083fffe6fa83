"""Differential forms with polynomial coefficients.

Same sparse basis-indexed storage as multivectors, covariant side:
a grade-k form maps strictly increasing tuples (i1 < ... < ik), standing
for dx_{i1}^...^dx_{ik}, to polynomial coefficients.

Pairing is the determinant convention <dx_I, d_J> = delta_{IJ} on
increasing tuples, with no factorial factors; the interior product is
(i_u a)(y) = a(u ^ y) against that pairing.  The Koszul-Brylinski
boundary is the operator formula delta = i_p d - d i_p; the coordinate
expansion on a0*da1^...^dak is kept as an independent cross-check.
"""

from .ratpoly import Poly, DimensionMismatch
from .multivec import (Multivector, sort_sign, all_index_tuples,
                       GradeMismatch, wedge as mv_wedge, jacobiator)


class NonInvolutive(ValueError):
    """Bivector fails [p,p]=0 where involutivity is required."""


class Form:
    __slots__ = ("n", "grade", "terms")

    def __init__(self, n, grade, terms=None):
        self.n = n
        self.grade = grade
        clean = {}
        if grade > n:
            terms = None
        if terms:
            for idx, coeff in terms.items():
                idx = tuple(idx)
                if len(idx) != grade:
                    raise GradeMismatch(
                        "tuple %r has wrong length for grade %d" % (idx, grade))
                if list(idx) != sorted(set(idx)):
                    raise ValueError("index tuple %r not strictly increasing" % (idx,))
                if any(i >= n for i in idx):
                    raise IndexError("index out of range in %r" % (idx,))
                if not isinstance(coeff, Poly):
                    coeff = Poly.const(n, coeff)
                if not coeff.is_zero():
                    clean[idx] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, n, grade):
        return cls(n, grade)

    @classmethod
    def from_poly(cls, p):
        return cls(p.n, 0, {(): p})

    @classmethod
    def basis(cls, n, indices, coeff=1):
        c = coeff if isinstance(coeff, Poly) else Poly.const(n, coeff)
        return cls(n, len(indices), {tuple(indices): c})

    def as_poly(self):
        if self.grade != 0:
            raise GradeMismatch("not a grade-0 form")
        return self.terms.get((), Poly.zero(self.n))

    def is_zero(self):
        return not self.terms

    def coeff(self, idx):
        return self.terms.get(tuple(idx), Poly.zero(self.n))

    def _check(self, other):
        if self.n != other.n:
            raise DimensionMismatch("ambient dimensions differ")

    def __add__(self, other):
        self._check(other)
        if self.grade != other.grade:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise GradeMismatch("cannot add grades %d and %d"
                                % (self.grade, other.grade))
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            terms[idx] = terms.get(idx, Poly.zero(self.n)) + c
        return Form(self.n, self.grade, terms)

    def __neg__(self):
        return Form(self.n, self.grade, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, p):
        if not isinstance(p, Poly):
            p = Poly.const(self.n, p)
        return Form(self.n, self.grade, {i: c * p for i, c in self.terms.items()})

    def __eq__(self, other):
        return (self.n == other.n and self.terms == other.terms
                and (self.grade == other.grade or self.is_zero() and other.is_zero()))

    def __repr__(self):
        if not self.terms:
            return "Form(n=%d, grade=%d, 0)" % (self.n, self.grade)
        bits = ["(%s)*%s" % (c, "dx" + "^dx".join(map(str, i)) if i else "1")
                for i, c in sorted(self.terms.items())]
        return "Form(%s)" % " + ".join(bits)

    def sorted_terms(self):
        return sorted(self.terms.items())


def form_wedge(a, b):
    a._check(b)
    if a.grade == 0:
        return b.scale(a.as_poly())
    if b.grade == 0:
        return a.scale(b.as_poly())
    out = Form.zero(a.n, a.grade + b.grade)
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            sign, idx = sort_sign(ia + ib)
            if sign:
                out = out + Form.basis(a.n, idx, ca * cb * sign)
    return out


def form_d(a):
    """Exterior derivative; d(f dx_I) = sum_i (df/dx_i) dx_i ^ dx_I."""
    out = Form.zero(a.n, a.grade + 1)
    for idx, c in a.terms.items():
        for i in range(a.n):
            dc = c.diff(i)
            if dc.is_zero():
                continue
            sign, nidx = sort_sign((i,) + idx)
            if sign:
                out = out + Form.basis(a.n, nidx, dc * sign)
    return out


def d_poly(p):
    """Differential of a polynomial as a 1-form."""
    return form_d(Form.from_poly(p))


def interior(u, a):
    """Interior product (i_u a)(y) = a(u ^ y); grade |a| - |u|."""
    u._check(a)
    if u.grade > a.grade:
        raise GradeMismatch("interior product needs |u| <= |form|")
    if u.grade == 0:
        return a.scale(u.as_poly())
    n = a.n
    out = Form.zero(n, a.grade - u.grade)
    for iu, cu in u.terms.items():
        for rest in all_index_tuples(n, a.grade - u.grade):
            sign, idx = sort_sign(iu + rest)
            if not sign:
                continue
            ca = a.terms.get(idx)
            if ca is None:
                continue
            out = out + Form.basis(n, rest, cu * ca * sign)
    return out


def pair(a, u):
    """Total contraction of a grade-k form with a grade-k multivector."""
    a._check(u)
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
    p._check(a)
    if require_involutive and not jacobiator(p).is_zero():
        raise NonInvolutive("bivector is not involutive; delta^2 = 0 fails")
    if a.grade == 0:
        return Form.zero(a.n, 0)
    return _interior_p(p, form_d(a)) - form_d(_interior_p(p, a))


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
    t3 = pair(form_d(omega), mv_wedge(u, v))
    return lhs - (t1 + t2 - t3)
