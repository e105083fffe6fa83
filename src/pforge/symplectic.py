"""Symplectic star operator for constant nondegenerate bivectors.

Conventions, fixed once so that both acceptance identities hold
(star(star(a)) = a and delta = (-1)^k star d star):

* matrix(omega) = matrix(p)^{-1}; with p = d0^d1 on the plane this gives
  omega = -dx0^dx1, the choice under which {f,g} * omega^m equals
  m * dg ^ df ^ omega^(m-1).
* vol = omega^m / m! = (-1)^m / Pf(p) dx_0 ^ ... ^ dx_{n-1}, since
  omega^m / m! = Pf(omega) dx_0 ^ ... ^ dx_{n-1} and
  Pf(P^{-1}) = (-1)^m / Pf(P).  Pf(p), the top coefficient of p^m / m!,
  is zero exactly when p is degenerate, so omega itself is never built.
* The grade-k pairing of forms is the determinant pairing
  <a, b>_k = det[ p(a_i, b_j) ] on decomposables of 1-forms (the
  literal "(a^b)(wedge^k p)" reading dies on top forms; see README).
* star(a) is defined by  b ^ star(a) = <a, b>_k * vol  over all grade-k
  basis forms b.  Note the argument order in the pairing; the pairing
  is only (-1)^k-symmetric.
* star(a) = i_{sharp(a)} vol in closed form: for basis forms
  <dx_B, sharp(dx_A)> = det[ p(a_i, b_j) ] = <dx_A, dx_B>_k, and
  b ^ i_X vol = <b, X> vol for a k-form b and a k-vector X.  No linear
  system is solved.
"""

from fractions import Fraction
from math import factorial

from .ratpoly import Poly
from .multivec import Multivector, check_bivector, wedge
from .forms import Form, interior
from .analysis import sharp


class DegenerateBivector(ValueError):
    pass


class NotConstantCoefficient(ValueError):
    pass


class OddDimension(ValueError):
    pass


class SymplecticContext:
    """Frozen star-operator context for one constant symplectic bivector;
    rejects degenerate, odd-dimensional or non-constant bivectors."""

    def __init__(self, p):
        if check_bivector(p).n % 2 != 0:
            raise OddDimension("symplectic dimension must be even")
        for (i, j), c in p.terms.items():
            if not c.is_constant():
                raise NotConstantCoefficient("bivector coefficient for "
                                             "(%d,%d) is not constant" % (i, j))
        self.n = p.n
        self.m = p.n // 2
        self.p = p
        power = Multivector.from_poly(Poly.const(self.n, 1))
        for _ in range(self.m):
            power = wedge(power, p)
        # the top coefficient of p^m is m! Pf(p)
        top = tuple(range(self.n))
        pf_m = power.coeff(top).constant_term()
        if not pf_m:
            raise DegenerateBivector("bivector matrix is singular")
        # vol's one coefficient is stored as an int when integral, which
        # keeps every star's arithmetic integer-first
        self.vol = Form.basis(self.n, top, Fraction(
            (-1) ** self.m * factorial(self.m)) / pf_m)

    def star(self, a):
        """Symplectic star i_{sharp(a)} vol; grade k -> 2m - k,
        Poly-linear.  a must be a form over p's n."""
        return interior(sharp(self.p, a), self.vol)
