"""Antisymmetric multivector fields with polynomial coefficients.

Storage is basis-indexed and sparse: a grade-k multivector over n
variables maps strictly increasing index tuples (i1 < ... < ik) to
polynomial coefficients, the tuple standing for the wedge of the
coordinate derivations along those indices.  A grade-0 multivector
wraps a single polynomial under the empty tuple.

Sign conventions (normative for the whole package)
--------------------------------------------------
* Wedge on basis tuples is a signed merge: duplicated index gives zero,
  otherwise the sign of the permutation sorting the concatenation.
* The graded bracket of decomposables u1^...^um and v1^...^vn is

      sum_{i,j} (-1)^(m+i+j-1) [u_i,v_j] ^ u1^..^u_i^..^um ^ v1^..^v_j^..^vn

  with 1-based i, j, hats dropping the bracketed factors, and [.,.] the
  commutator of vector fields.
* A grade-0 argument g is handled by  [u, g] = sum_i (-1)^(i-1)
  u_i(g) * (u with factor i removed)  and  [g, u] = [u, g].
* Consequences used everywhere else: ([p, f])(g) = {f, g} = p(df, dg),
  the coboundary d_P = [p, .] raises grade by one, and d_P(f) is the
  Hamiltonian field X_f.
"""

from fractions import Fraction
from itertools import combinations

from .ratpoly import Poly, DimensionMismatch


class GradeMismatch(ValueError):
    pass


def sort_sign(idx):
    """Sign of the permutation sorting an index tuple, and the sorted
    tuple; (0, None) when an index repeats."""
    if len(set(idx)) != len(idx):
        return 0, None
    inv = sum(1 for a in range(len(idx)) for b in range(a + 1, len(idx))
              if idx[a] > idx[b])
    return (-1) ** inv, tuple(sorted(idx))


class Multivector:
    __slots__ = ("n", "grade", "terms")

    def __init__(self, n, grade, terms=None):
        self.n = n
        self.grade = grade
        clean = {}
        if grade > n:
            terms = None  # necessarily zero
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
                if coeff.n != n:
                    raise DimensionMismatch("coefficient over wrong n")
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
            raise GradeMismatch("not a grade-0 multivector")
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
        return Multivector(self.n, self.grade, terms)

    def __neg__(self):
        return Multivector(self.n, self.grade,
                           {i: -c for i, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, p):
        if not isinstance(p, Poly):
            p = Poly.const(self.n, p)
        return Multivector(self.n, self.grade,
                           {i: c * p for i, c in self.terms.items()})

    def __eq__(self, other):
        return (self.n == other.n and self.terms == other.terms
                and (self.grade == other.grade or self.is_zero() and other.is_zero()))

    def __repr__(self):
        if not self.terms:
            return "Multivector(n=%d, grade=%d, 0)" % (self.n, self.grade)
        bits = ["(%s)*%s" % (c, "d" + "^d".join(map(str, i)) if i else "1")
                for i, c in sorted(self.terms.items())]
        return "Multivector(%s)" % " + ".join(bits)

    def sorted_terms(self):
        return sorted(self.terms.items())


def wedge(u, v):
    """Exterior product; graded-commutative signed merge on basis tuples."""
    u._check(v)
    if u.grade == 0:
        return v.scale(u.as_poly())
    if v.grade == 0:
        return u.scale(v.as_poly())
    out = Multivector.zero(u.n, u.grade + v.grade)
    for iu, cu in u.terms.items():
        for iv, cv in v.terms.items():
            sign, idx = sort_sign(iu + iv)
            if sign:
                out = out + Multivector.basis(u.n, idx, cu * cv * sign)
    return out


def vf_bracket(x, y):
    """Lie bracket of vector fields: [X,Y]_i = sum_j X_j dY_i - Y_j dX_i."""
    x._check(y)
    if x.grade != 1 or y.grade != 1:
        raise GradeMismatch("vf_bracket needs grade-1 arguments")
    n = x.n
    terms = {}
    for i in range(n):
        acc = Poly.zero(n)
        xi, yi = x.coeff((i,)), y.coeff((i,))
        for j in range(n):
            acc = acc + x.coeff((j,)) * yi.diff(j) - y.coeff((j,)) * xi.diff(j)
        if not acc.is_zero():
            terms[(i,)] = acc
    return Multivector(n, 1, terms)


def _factors(idx, coeff, n):
    """Split a basis term coeff * d_{i1}^...^d_{ik} into simple vector
    field factors, the coefficient attached to the first one."""
    out = []
    for pos, i in enumerate(idx):
        c = coeff if pos == 0 else Poly.const(n, 1)
        out.append((i, c))
    return out


def _simple_bracket(a, b, n):
    """[f*d_i, g*d_j] for simple fields, as a grade-1 multivector."""
    (i, f), (j, g) = a, b
    terms = {}
    cj = f * g.diff(i)
    if not cj.is_zero():
        terms[(j,)] = cj
    ci = -(g * f.diff(j))
    if not ci.is_zero():
        terms[(i,)] = terms.get((i,), Poly.zero(n)) + ci
    return Multivector(n, 1, {k: v for k, v in terms.items() if not v.is_zero()})


def _wedge_simple(fields, n):
    """Wedge of simple fields (index, coeff) into a basis multivector."""
    if not fields:
        return Multivector.from_poly(Poly.const(n, 1))
    coeff = Poly.const(n, 1)
    indices = []
    for i, c in fields:
        coeff = coeff * c
        indices.append(i)
    sign, idx = sort_sign(indices)
    if not sign:
        return Multivector.zero(n, len(indices))
    return Multivector.basis(n, idx, coeff * sign)


def schouten(u, v):
    """Graded (Schouten) bracket of multivectors; grade |u|+|v|-1."""
    u._check(v)
    n = u.n
    m, k = u.grade, v.grade
    if m == 0 and k == 0:
        return Multivector.zero(n, 0)
    if m == 0:
        return schouten(v, u)
    result_grade = m + k - 1
    out = Multivector.zero(n, result_grade)
    for iu, cu in u.terms.items():
        uf = _factors(iu, cu, n)
        if k == 0:
            g = v.as_poly()
            for a in range(m):
                di, ca = uf[a]
                rest = uf[:a] + uf[a + 1:]
                lead = ca * g.diff(di) * ((-1) ** a)
                piece = _wedge_simple(rest, n).scale(lead)
                out = out + piece
            continue
        for iv, cv in v.terms.items():
            vf = _factors(iv, cv, n)
            for a in range(m):
                for b in range(k):
                    br = _simple_bracket(uf[a], vf[b], n)
                    if br.is_zero():
                        continue
                    sign = (-1) ** (m + (a + 1) + (b + 1) - 1)
                    rest = _wedge_simple(uf[:a] + uf[a + 1:] +
                                         vf[:b] + vf[b + 1:], n)
                    piece = wedge(br, rest)
                    if sign < 0:
                        piece = -piece
                    out = out + piece
    return out


def lichnerowicz_dp(p, u):
    """Coboundary [p, .] of the bivector p; squares to zero when [p,p]=0."""
    if p.grade != 2:
        raise GradeMismatch("p must be a bivector (grade 2)")
    return schouten(p, u)


def jacobiator(p):
    """[p, p]; vanishes iff the induced bracket satisfies Jacobi."""
    if p.grade != 2:
        raise GradeMismatch("p must be a bivector (grade 2)")
    return schouten(p, p)


def evaluate_on_functions(u, funcs):
    """Value of a grade-k multivector on k polynomials (determinant rule)."""
    n = u.n
    if u.grade == 0:
        if funcs:
            raise GradeMismatch("grade-0 multivector takes no arguments")
        return u.as_poly()
    if len(funcs) != u.grade:
        raise GradeMismatch("need exactly %d functions" % u.grade)
    total = Poly.zero(n)
    for idx, c in u.terms.items():
        det = Poly.zero(n)
        k = len(idx)
        for perm_sign, perm in _permutations_signed(k):
            prod = Poly.const(n, perm_sign)
            for row, col in enumerate(perm):
                prod = prod * funcs[col].diff(idx[row])
            det = det + prod
        total = total + c * det
    return total


def _permutations_signed(k):
    from itertools import permutations
    for perm in permutations(range(k)):
        yield sort_sign(perm)[0], perm


def all_index_tuples(n, k):
    return list(combinations(range(n), k))
