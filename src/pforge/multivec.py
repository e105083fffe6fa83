"""Antisymmetric multivector fields with polynomial coefficients.

Storage is basis-indexed and sparse: a grade-k multivector over n
variables maps strictly increasing index tuples (i1 < ... < ik) to
polynomial coefficients, the tuple standing for the wedge of the
coordinate derivations along those indices.  A grade-0 multivector
wraps a single polynomial under the empty tuple.  `Graded` holds this
storage for multivectors and for forms (`forms.Form`) alike.

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

from itertools import combinations
from operator import add

from .ratpoly import Poly, DimensionMismatch, _poly


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


def add_term(acc, idx, scale, f, g=None):
    """Add scale * f * g (scale * f when g is None) on the basis element
    of the index tuple idx; f and g are Polys, scale a nonzero exact
    number.

    acc maps increasing tuples to {exponent tuple: coefficient}
    accumulators; the products are multiplied straight into them, and
    no Poly is formed per term.  Zeros stay in the accumulators until
    `Graded.build` drops them and builds each coefficient Poly once.
    idx may be unsorted: its sorting sign is folded in, and an idx with
    a repeated index adds nothing."""
    s, key = sort_sign(idx)
    if not s:
        return
    k = s * scale
    a = f.terms if k == 1 else {e: k * c for e, c in f.terms.items()}
    out = acc.get(key)
    if out is None:
        out = acc[key] = {}
    get = out.get
    if g is None:
        for e, c in a.items():
            out[e] = get(e, 0) + c
        return
    b = g.terms
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2


class Graded:
    """Sparse {increasing index tuple: Poly} element of one grade.

    The one container behind multivectors and forms: every method builds
    `type(self)`, and the subclasses differ only in the index symbol
    their repr prints.
    """
    __slots__ = ("n", "grade", "terms")
    _symbol = "d"

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
    def _trusted(cls, n, grade, terms):
        """Unchecked constructor from an {increasing tuple: Poly} dict
        of valid keys; zero coefficients are dropped."""
        g = object.__new__(cls)
        g.n = n
        g.grade = grade
        g.terms = {i: c for i, c in terms.items() if c.terms}
        return g

    @classmethod
    def build(cls, n, grade, acc):
        """The element whose coefficients are the accumulators that
        `add_term` filled: zeros dropped, each Poly built once."""
        polys = {}
        for idx, terms in acc.items():
            terms = {e: c for e, c in terms.items() if c}
            if terms:
                polys[idx] = _poly(n, terms)
        return cls._trusted(n, grade, polys)

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
            raise GradeMismatch("not a grade-0 %s" % type(self).__name__)
        return self.terms.get((), Poly.zero(self.n))

    def is_zero(self):
        return not self.terms

    def coeff(self, idx):
        return self.terms.get(tuple(idx), Poly.zero(self.n))

    def _check(self, other, kind=None):
        """Raise unless other is a `kind` (by default of self's own type)
        over the same n."""
        kind = kind or type(self)
        if not isinstance(other, kind):
            raise TypeError("%s operand where a %s is needed"
                            % (type(other).__name__, kind.__name__))
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
            old = terms.get(idx)
            terms[idx] = c if old is None else old + c
        return self._trusted(self.n, self.grade, terms)

    def __neg__(self):
        return self._trusted(self.n, self.grade,
                             {i: -c for i, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, p):
        if not isinstance(p, Poly):
            p = Poly.const(self.n, p)
        return self._trusted(self.n, self.grade,
                             {i: c * p for i, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Graded):
            return NotImplemented
        if type(other) is not type(self):
            raise TypeError("cannot compare a %s with a %s"
                            % (type(self).__name__, type(other).__name__))
        return (self.n == other.n and self.terms == other.terms
                and (self.grade == other.grade or self.is_zero() and other.is_zero()))

    def __repr__(self):
        name = type(self).__name__
        if not self.terms:
            return "%s(n=%d, grade=%d, 0)" % (name, self.n, self.grade)
        sym = self._symbol
        bits = ["(%s)*%s" % (c, sym + ("^" + sym).join(map(str, i))
                             if i else "1")
                for i, c in sorted(self.terms.items())]
        return "%s(%s)" % (name, " + ".join(bits))

    def sorted_terms(self):
        return sorted(self.terms.items())


class Multivector(Graded):
    """Multivector field: idx stands for d_{i1}^...^d_{ik}."""
    __slots__ = ()


def wedge(u, v):
    """Exterior product; graded-commutative signed merge on basis tuples.
    Serves multivectors and forms alike (the result has u's type)."""
    u._check(v)
    if u.grade == 0:
        return v.scale(u.as_poly())
    if v.grade == 0:
        return u.scale(v.as_poly())
    acc = {}
    for iu, cu in u.terms.items():
        for iv, cv in v.terms.items():
            add_term(acc, iu + iv, 1, cu, cv)
    return type(u).build(u.n, u.grade + v.grade, acc)


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


def schouten(u, v):
    """Graded (Schouten) bracket of multivectors; grade |u|+|v|-1.

    The double sum of the module docstring runs over the simple factors
    of basis terms u = f d_I and v = g d_J, with f and g carried by the
    first factor of each.  Every other factor is a bare d_i, and
    [d_i, d_j] = 0, so only the pairs (a, 0) and (0, b) survive.  With
    [d_i, g d_j] = g_i d_j and [f d_i, d_j] = -f_j d_i, moving the new
    d_j into place, they fold into two sums (0-based a, b; m = |I|):

        [f d_I, g d_J] = sum_a (-1)^a f dg/dx_{I_a} d_{I-I_a} ^ d_J
                       + sum_b (-1)^(m+b) g df/dx_{J_b} d_I ^ d_{J-J_b}

    For |v| = 0 the first sum is the rule for [u, g]; for |u| = 0 the
    second is [g, u] = [u, g].
    """
    u._check(v)
    n, m = u.n, u.grade
    if m == 0 and v.grade == 0:
        return Multivector.zero(n, 0)
    acc = {}
    du, dv = {}, {}     # partial derivatives, each taken once
    for iu, f in u.terms.items():
        for iv, g in v.terms.items():
            for a, i in enumerate(iu):
                gi = dv.get((iv, i))
                if gi is None:
                    gi = dv[iv, i] = g.diff(i)
                if gi.terms:
                    add_term(acc, iu[:a] + iu[a + 1:] + iv, (-1) ** a, f, gi)
            for b, j in enumerate(iv):
                fj = du.get((iu, j))
                if fj is None:
                    fj = du[iu, j] = f.diff(j)
                if fj.terms:
                    add_term(acc, iu + iv[:b] + iv[b + 1:], (-1) ** (m + b),
                             g, fj)
    return Multivector.build(n, m + v.grade - 1, acc)


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
