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

Packed monomials (the operators' working form)
----------------------------------------------
Inside the graded operators a monomial is one int: exponent e_i sits
in bits [w*i, w*(i+1)).  A product of monomials is then one int add and
d/dx_i one shift, one mask and one subtraction.  Each public operator
picks w once, as the bit length of its result's degree bound (the sum
of its operands' largest total degrees, `_width`).  No exponent of an
operand or of the result exceeds that bound, so no field ever carries
into the next, whatever the degrees; there is no cap and no other
route.  An operator packs its operands once (`_pack`: {idx: {packed
monomial: coefficient}}), its kernel (`_wedge`, `_schouten`, and in
`forms` `_form_d`, `_interior`, `_delta`) multiplies through `add_term`
into packed accumulators, and `Graded.build` unpacks each output
monomial once.  `Poly` keeps its exponent-tuple keys throughout.
"""

from bisect import bisect_left
from itertools import combinations
from operator import lshift

from .ratpoly import Poly, DimensionMismatch, _poly, _ints


class GradeMismatch(ValueError):
    pass


def sort_sign(idx):
    """Sign of the permutation sorting an index tuple, and the sorted
    tuple; (0, None) when an index repeats."""
    key = tuple(sorted(idx))
    if len(set(key)) != len(key):
        return 0, None
    s = 1
    for a, x in enumerate(idx, 1):
        for y in idx[a:]:
            if x > y:
                s = -s
    return s, key


def _width(deg):
    """Bits per exponent for an operator whose result has total degree
    at most deg.  No exponent of its operands or result exceeds deg <
    2**w, so packed exponents never carry into a neighbour."""
    return max(deg, 1).bit_length()


def _degree(u):
    """Largest total degree among u's coefficients (0 when u is zero)."""
    return max((max(map(sum, c.terms)) for c in u.terms.values()),
               default=0)


def _pack(u, w):
    """The packed element {idx: {packed monomial: coefficient}} of u:
    exponent e_i goes in bits [w*i, w*(i+1)) of one int, and each
    distinct monomial of u is packed once."""
    shifts = range(0, w * u.n, w)
    packed = {e: sum(map(lshift, e, shifts))
              for e in set().union(*[c.terms for c in u.terms.values()])}
    return {idx: dict(zip(map(packed.__getitem__, c.terms), c.terms.values()))
            for idx, c in u.terms.items()}


def _diff(f, i, w):
    """d/dx_i of a packed term dict: per monomial one shift and mask to
    read e_i, one subtraction to lower it."""
    s = w * i
    mask, one = (1 << w) - 1, 1 << s
    return {e - one: k * c for e, c in f.items() if (k := e >> s & mask)}


def _coordinate_fields(pp, n):
    """The packed fields X_j = [p, x_j] = sum_i {x_j, x_i} d_i of the
    packed bivector pp; {x_j, x_i} = -{x_i, x_j} when i < j."""
    fields = [{} for _ in range(n)]
    for (i, j), c in pp.items():
        fields[i][j,], fields[j][i,] = c, {e: -v for e, v in c.items()}
    return fields


def add_term(acc, key, scale, f, g=None):
    """Add scale * f * g (scale * f when g is None) on the basis element
    of the increasing index tuple key; f and g are packed term dicts
    {packed monomial: coefficient} of one width, scale a nonzero exact
    number into which the caller has folded any reordering sign.

    acc maps increasing tuples to packed {monomial: coefficient}
    accumulators; a monomial product is one int add, and no Poly or
    exponent tuple is formed per term, and the outer loop runs over the
    shorter operand, so scale multiplies the fewer coefficients.  Zeros
    stay in the accumulators until `Graded.build` drops them."""
    out = acc.get(key)
    if out is None:
        out = acc[key] = {}
    get = out.get
    if g is None:
        for e, c in f.items():
            out[e] = get(e, 0) + scale * c
        return
    if len(g) < len(f):
        f, g = g, f
    for e1, c1 in f.items():
        kc = scale * c1
        for e2, c2 in g.items():
            e = e1 + e2
            out[e] = get(e, 0) + kc * c2


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
    def build(cls, n, grade, acc, w):
        """The element whose coefficients are the width-w packed
        accumulators that `add_term` filled: zeros dropped, each distinct
        monomial unpacked once per call and each Poly built once."""
        mask = (1 << w) - 1
        shifts = range(0, w * n, w)
        expts = {e: tuple([e >> s & mask for s in shifts])
                 for e in {e for t in acc.values() for e, c in t.items() if c}}
        polys = {}
        for idx, terms in acc.items():
            terms = {expts[e]: c for e, c in terms.items() if c}
            if terms:
                polys[idx] = _poly(n, _ints(terms))
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
    w = _width(_degree(u) + _degree(v))
    return type(u).build(u.n, u.grade + v.grade,
                         _wedge(_pack(u, w), _pack(v, w), {}), w)


def _wedge(pu, pv, acc, scale=1):
    """Add scale * the wedge of two packed elements into acc; returns
    acc.  Each index j of iv goes into the increasing key, which starts
    as iu, at its bisection point b: a repeated index kills the term,
    and j moves left past the len(key) - b entries above it, one sign
    flip each."""
    for iu, cu in pu.items():
        for iv, cv in pv.items():
            key, s = iu, scale
            for j in iv:
                b = bisect_left(key, j)
                if b < len(key) and key[b] == j:
                    break
                if (len(key) - b) & 1:
                    s = -s
                key = key[:b] + (j,) + key[b:]
            else:
                add_term(acc, key, s, cu, cv)
    return acc


def schouten(u, v):
    """Graded (Schouten) bracket of multivectors; grade |u|+|v|-1.

    The double sum of the module docstring runs over the simple factors
    of basis terms u = f d_I and v = g d_J, with f and g carried by the
    first factor of each.  Every other factor is a bare d_i, and
    [d_i, d_j] = 0, so only the pairs (a, 0) and (0, b) survive.  With
    [d_i, g d_j] = g_i d_j the pairs (a, 0) give (0-based a)

        S(f d_I, g d_J) = sum_a (-1)^a f dg/dx_{I_a} d_{I-I_a} ^ d_J,

    and the pairs (0, b) give S(v, u) moved into place, so with m = |u|
    and k = |v|, [u, v] = S(u, v) + (-1)^(m k) S(v, u).  On one operand
    [u, u] = (1 + (-1)^m) S(u, u) runs S once.  S(u, g) is the rule for
    [u, g], and S(g, u) = 0.  S sums the signed derivatives that land on
    one basis element before f multiplies them (`_schouten`).
    """
    u._check(v, Multivector)
    v._check(u, Multivector)
    n, m, k = u.n, u.grade, v.grade
    if m == 0 and k == 0:
        return Multivector.zero(n, 0)
    w = _width(_degree(u) + _degree(v))
    pu = _pack(u, w)
    if v is u:
        acc = {} if m % 2 else _schouten(pu, pu, w, {}, 2)
    else:
        pv = _pack(v, w)
        acc = _schouten(pv, pu, w, _schouten(pu, pv, w, {}), (-1) ** (m * k))
    return Multivector.build(n, m + k - 1, acc, w)


def _schouten(pu, pv, w, acc, scale=1):
    """Add scale * S(u, v) of `schouten` for packed u and v into acc;
    returns acc.  Per term f d_I, the signed derivatives that land on
    one basis element are summed (zeros dropped; a lone one is used as
    it is), then f multiplies each sum once.  Derivatives and the signs
    of index concatenations are memoised for this call only."""
    ders, signs = {}, {}
    for iu, f in pu.items():
        parts = {}
        for a, i in enumerate(iu):
            if i not in ders:
                ders[i] = [(iv, gi) for iv, g in pv.items()
                           if (gi := _diff(g, i, w))]
            rest = iu[:a] + iu[a + 1:]
            for iv, gi in ders[i]:
                idx = rest + iv
                s, key = signs.get(idx) or signs.setdefault(idx, sort_sign(idx))
                if s:
                    parts.setdefault(key, []).append((-s if a & 1 else s, gi))
        for key, signed in parts.items():
            (s, h), *more = signed
            if more:
                h = {}
                for t, gi in signed:
                    for e, c in gi.items():
                        h[e] = h.get(e, 0) + t * c
                s, h = 1, {e: c for e, c in h.items() if c}
            if h:
                add_term(acc, key, s * scale, f, h)
    return acc


def check_bivector(p):
    """p, the precondition of every construction from a Poisson
    bivector: raises TypeError unless p is a `Multivector`, and
    GradeMismatch unless its grade is 2."""
    if not isinstance(p, Multivector):
        raise TypeError("%s operand where a Multivector is needed"
                        % type(p).__name__)
    if p.grade != 2:
        raise GradeMismatch("p must be a bivector (grade 2)")
    return p


def lichnerowicz_dp(p, u):
    """Coboundary [p, .] of the bivector p; squares to zero when [p,p]=0."""
    return schouten(check_bivector(p), u)


def jacobiator(p):
    """[p, p]; vanishes iff the induced bracket satisfies Jacobi."""
    return lichnerowicz_dp(p, p)


def all_index_tuples(n, k):
    return list(combinations(range(n), k))
