"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial in n variables x0..x{n-1} is a map from exponent tuples to
nonzero coefficients.  Coefficients are exact and come in two types
only: an integral value is a Python `int`, any other a
`fractions.Fraction`.  The public constructor and `parse_poly` store
every integral input as an `int` and reject every other type, floats
included, so `int` arithmetic stays `int`.  Sums, products and
derivatives store an integral result as an `int` too, even of
`Fraction` operands: a non-integral result is a `Fraction`.

Every internal result (sums, products, scalar multiples, derivatives)
goes through the trusted `_poly`, which takes a finished dict:
arithmetic accumulates into one local dict, drops its zeros once and
builds the result without re-checking or copying a coefficient.
Instances are treated as immutable once built.  Canonical term order
everywhere is graded lexicographic, which makes printing (and therefore
CLI output) deterministic.
"""

import re
from fractions import Fraction
from operator import add


class DimensionMismatch(ValueError):
    """Operands live over different ambient variable counts."""


class PolyParseError(ValueError):
    """Input text does not conform to the polynomial grammar."""


def _exact(c):
    """c as a stored coefficient: an `int` when integral, else a
    `Fraction`; TypeError for any other type (floats included)."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError("coefficient %r is not an int or a Fraction" % (c,))


def _poly(n, terms):
    """Trusted constructor: terms is a finished {exponent tuple: nonzero
    int or Fraction} dict, which the result takes over."""
    p = object.__new__(Poly)
    p.n = n
    p.terms = terms
    return p


def _ints(terms):
    """terms with every integral `Fraction` stored as an `int`, in
    place; an all-`int` dict costs one scan of its types."""
    if Fraction in set(map(type, terms.values())):
        for e, c in terms.items():
            if c.denominator == 1:
                terms[e] = c.numerator
    return terms


def _product(a, b):
    """Terms of the product of two term dicts, zeros dropped."""
    if len(b) == 1:
        (e2, c2), = b.items()
        return _ints({tuple(map(add, e1, e2)): c1 * c2
                      for e1, c1 in a.items()})
    if len(a) == 1:
        (e1, c1), = a.items()
        return _ints({tuple(map(add, e1, e2)): c1 * c2
                      for e2, c2 in b.items()})
    out = {}
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return _ints({e: c for e, c in out.items() if c})


class Poly:
    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        if terms:
            for expts, coeff in terms.items():
                if len(expts) != n:
                    raise DimensionMismatch(
                        "monomial %r has wrong length for n=%d" % (expts, n))
                if not all(type(k) is int and k >= 0 for k in expts):
                    raise ValueError("monomial %r needs nonnegative int "
                                     "exponents" % (expts,))
                c = _exact(coeff)
                if c:
                    clean[tuple(expts)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n):
        return _poly(n, {})

    @classmethod
    def const(cls, n, c):
        c = _exact(c)
        return _poly(n, {(0,) * n: c} if c else {})

    @classmethod
    def var(cls, n, i, power=1):
        if not 0 <= i < n:
            raise IndexError("variable index %d out of range for n=%d" % (i, n))
        e = [0] * n
        e[i] = power
        return cls(n, {tuple(e): 1})

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.n, 0)

    def degree(self):
        """Total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise DimensionMismatch(
                "variable counts differ: %d vs %d" % (self.n, other.n))

    def _operand(self, other):
        """other as a Poly over self's n, or None when it is not an
        exact value."""
        if isinstance(other, Poly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.n, other)
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            c = terms.get(e, 0) + c
            if c:
                terms[e] = c
            else:
                del terms[e]
        return _poly(self.n, _ints(terms))

    def __neg__(self):
        return _poly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            return _poly(self.n, _product(self.terms, other.terms))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        k = _exact(other)
        if not k:
            return _poly(self.n, {})
        return _poly(self.n, _ints({e: c * k for e, c in self.terms.items()}))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        # a constant (or zero) Poly equals its value, so hashes like it
        c = self.constant_term()
        if len(self.terms) == bool(c):
            return hash(c)
        return hash((self.n, frozenset(self.terms.items())))

    # -- calculus -----------------------------------------------------

    def diff(self, i):
        """Formal partial derivative with respect to x_i."""
        if not 0 <= i < self.n:
            raise IndexError("variable index %d out of range for n=%d" % (i, self.n))
        terms = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                terms[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return _poly(self.n, _ints(terms))

    def eval(self, point):
        """Exact evaluation at a rational point."""
        if len(point) != self.n:
            raise DimensionMismatch(
                "point length %d != n=%d" % (len(point), self.n))
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for xi, ei in zip(pt, e):
                if ei:
                    v *= xi ** ei
            total += v
        return total

    # -- presentation -------------------------------------------------

    def __str__(self):
        return format_poly(self, {})

    def __repr__(self):
        return "Poly(%d, %s)" % (self.n, str(self))


def format_poly(p, names):
    """The canonical text of p, in graded lex order: descending lex, then
    stably by degree, with built-in comparisons.  names is an {exponent
    tuple: monomial text} memo that polynomials printed together share."""
    terms = p.terms
    if not terms:
        return "0"
    keys = sorted(terms, reverse=True)
    keys.sort(key=sum)
    parts = []
    for e in keys:
        c = terms[e]
        m = names.get(e)
        if m is None:
            m = names[e] = "*".join(["x%d^%d" % (i, k) if k > 1 else
                                     "x%d" % i for i, k in enumerate(e) if k])
        sign, c = ("- ", -c) if c < 0 else ("+ ", c)
        parts.append(sign + (str(c) if not m else m if c == 1
                             else str(c) + "*" + m))
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


# parse_poly's grammar on whitespace-free text: each term after the first
# starts at a sign, has a coefficient or a factor (the lookahead) and may
# end in one newline; _TERMS_RE's lookahead stops an empty match at the end.
_FACTOR = r"(?:x\d+(?:\^\d+)?\*?)"
_POLY_RE = re.compile(r"(?:(?:\A[+-]?|[+-])(?=\d|\*?x)"
                      r"(?:\d+(?:/\d+)?)?\*?%s*\n?)+" % _FACTOR)
_TERMS_RE = re.compile(r"(?=.)([+-]?)(\d*)(?:/(\d+))?\*?(%s*)\n?" % _FACTOR)
_FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")


def parse_poly(text, n, monomials=None):
    """Parse the polynomial text grammar.

    Grammar: term = [sign] [int['/'int] ['*']] factor*;
    factor = 'x'index['^'exp]; terms joined by '+'/'-'. Whitespace is
    ignored; the unicode minus sign is accepted as '-'.

    One regex checks the whole text, `findall` reads its terms and
    factors, and `_reject` names the first bad term of any error.
    monomials is a {factor text: exponent tuple} memo that texts parsed
    together at one n share, as `format_poly`'s names are shared; a
    factor text enters it only once read without error.
    """
    s = text.replace("−", "-").replace(" ", "").replace("\t", "")
    if not _POLY_RE.fullmatch(s):
        _reject(s, n)
    if monomials is None:
        monomials = {}
    terms = {}
    for sign, num, den, factors in _TERMS_RE.findall(s):
        if den and not int(den):
            _reject(s, n)
        c = Fraction(int(num), int(den)) if den else int(num or 1)
        e = monomials.get(factors)
        if e is None:
            e = [0] * n
            for i, k in _FACTOR_RE.findall(factors):
                i = int(i)
                if i >= n:
                    _reject(s, n)
                e[i] += int(k) if k else 1
            e = monomials[factors] = tuple(e)
        terms[e] = terms.get(e, 0) + (-c if sign == "-" else c)
    if n < 0:
        return Poly(n, terms)   # raises: no monomial has length n
    return _poly(n, _ints({e: c for e, c in terms.items() if c}))


def _reject(s, n):
    """Raise the error of the first bad term of s, split at each sign.
    Numbers are read in `parse_poly`'s order, so that one past `int`'s
    digit limit raises the same ValueError."""
    if not s:
        raise PolyParseError("empty polynomial text")
    offset = 0
    for chunk in filter(None, re.split(r"(?=[+-])", s)):
        if not _POLY_RE.fullmatch(chunk):
            raise PolyParseError(
                "malformed term %r at offset %d" % (chunk, offset))
        (_, num, den, factors), = _TERMS_RE.findall(chunk)
        if den and not int(den):
            raise PolyParseError(
                "zero denominator in %r at offset %d" % (chunk, offset))
        int(num or 0)
        for i, k in _FACTOR_RE.findall(factors):
            if int(i) >= n:
                raise PolyParseError(
                    "variable x%d out of range for n=%d" % (int(i), n))
            int(k or 0)
        offset += len(chunk)
