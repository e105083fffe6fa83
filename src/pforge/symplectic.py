"""Symplectic star operator for constant nondegenerate bivectors.

Conventions, fixed once so that both acceptance identities hold
(star(star(a)) = a and delta = (-1)^k star d star):

* matrix(omega) = matrix(p)^{-1}; with p = d0^d1 on the plane this gives
  omega = -dx0^dx1, the choice under which {f,g} * omega^m equals
  m * dg ^ df ^ omega^(m-1).
* vol = omega^m / m!.
* The grade-k pairing of forms is the determinant pairing
  <a, b>_k = det[ p(a_i, b_j) ] on decomposables of 1-forms (the
  literal "(a^b)(wedge^k p)" reading dies on top forms; see README).
* star(a) is the unique solution of  b ^ star(a) = <a, b>_k * vol
  over all grade-k basis forms b.  Note the argument order in the
  pairing; the pairing is only (-1)^k-symmetric.
"""

from fractions import Fraction
from math import factorial

from . import linalg
from .ratpoly import Poly
from .multivec import (all_index_tuples, sort_sign, add_term, GradeMismatch,
                       _width, _degree, _pack)
from .forms import Form, form_wedge


class DegenerateBivector(ValueError):
    pass


class NotConstantCoefficient(ValueError):
    pass


class OddDimension(ValueError):
    pass


def bivector_matrix(p):
    """Antisymmetric n x n matrix with M[i][j] = {x_i, x_j} for constant p."""
    n = p.n
    m = [[0] * n for _ in range(n)]
    for (i, j), c in p.terms.items():
        if not c.is_constant():
            raise NotConstantCoefficient(
                "bivector coefficient for (%d,%d) is not constant" % (i, j))
        v = c.constant_term()
        m[i][j] = v
        m[j][i] = -v
    return m


class SymplecticContext:
    """Frozen star-operator context for one constant symplectic bivector."""

    def __init__(self, p):
        if p.grade != 2:
            raise GradeMismatch("need a bivector")
        if p.n % 2 != 0:
            raise OddDimension("symplectic dimension must be even")
        self.n = p.n
        self.m = p.n // 2
        self.p = p
        self.pmat = bivector_matrix(p)
        inv = linalg.invert(self.pmat)
        if inv is None:
            raise DegenerateBivector("bivector matrix is singular")
        self.omega = Form(self.n, 2, {(i, j): inv[i][j] for i in range(self.n)
                                      for j in range(i + 1, self.n)})
        vol = Form.from_poly(Poly.const(self.n, 1))
        for _ in range(self.m):
            vol = form_wedge(vol, self.omega)
        self.vol = vol.scale(Fraction(1, factorial(self.m)))
        if self.vol.is_zero():
            raise DegenerateBivector("volume form vanished")
        self._star_matrices = {}

    def pairing_basis(self, idx_a, idx_b):
        """Determinant pairing <dx_A, dx_B>_k = det[ p(a_i, b_j) ]."""
        k = len(idx_a)
        if k == 0:
            return 1
        minor = [[self.pmat[ia][jb] for jb in idx_b] for ia in idx_a]
        return _det(minor)

    def _star_matrix(self, k):
        """Matrix of star on grade-k basis forms, solved from the
        defining relation against every grade-k basis beta: one system
        whose (beta, gamma) entries are the signs of beta ^ gamma, with
        one right-hand side per source basis form alpha."""
        if k in self._star_matrices:
            return self._star_matrices[k]
        n = self.n
        src = all_index_tuples(n, k)
        dst = all_index_tuples(n, n - k)
        vc = self.vol.coeff(tuple(range(n))).constant_term()
        aug = [[sort_sign(beta + gamma)[0] for gamma in dst]
               + [self.pairing_basis(alpha, beta) * vc for alpha in src]
               for beta in src]
        red, pivots = linalg.rref(aug)
        if pivots != list(range(len(dst))):
            raise DegenerateBivector("star system unsolvable at grade %d" % k)
        cols = [[row[len(dst) + a] for row in red] for a in range(len(src))]
        self._star_matrices[k] = (src, dst, cols)
        return self._star_matrices[k]

    def star(self, a):
        """Symplectic star; grade k -> 2m - k, Poly-linear."""
        k = a.grade
        if not 0 <= k <= self.n:
            raise GradeMismatch("grade out of range")
        src, dst, cols = self._star_matrix(k)
        w = _width(_degree(a))
        acc = {}
        pos = {idx: i for i, idx in enumerate(src)}
        for idx, c in _pack(a, w).items():
            col = cols[pos[idx]]
            for j, gamma in enumerate(dst):
                if col[j]:
                    add_term(acc, gamma, col[j], c)
        return Form.build(self.n, self.n - k, acc, w)


def _det(m):
    """Determinant by Bareiss fraction-free elimination (Bareiss 1968).

    Each step's division by the previous pivot is exact, so integral
    entries stay ints all the way (`//`); any other entries divide as
    Fractions.  The result is an int when integral, else a Fraction."""
    m = [list(row) for row in m]
    k = len(m)
    integral = all(type(x) is int for row in m for x in row)
    sign, prev = 1, 1
    for c in range(k):
        piv = next((r for r in range(c, k) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv], sign = m[piv], m[c], -sign
        top = m[c]
        pc = top[c]
        for row in m[c + 1:]:
            rc = row[c]
            for j in range(c + 1, k):
                x = pc * row[j] - rc * top[j]
                row[j] = x // prev if integral else Fraction(x) / prev
        prev = pc
    return linalg.exact(sign * prev)


def make_context(p):
    """Build the star context; rejects degenerate, odd-dimensional, or
    non-constant bivectors."""
    return SymplecticContext(p)
