"""Fraction-only reference arithmetic, the oracle for pforge's kernel.

`FracPoly` is the polynomial arithmetic pforge used before its integer
kernel: every coefficient is re-wrapped as a `Fraction`, every result
goes through the validating constructor, and sums and products are
formed one `FracPoly` at a time.  The graded operators below work on
{increasing index tuple: FracPoly} dicts and form each product as a
polynomial before adding it, as pforge's `add_term` once did.  Nothing
here is fast; it is only an independent route to the same exact values.
"""

from fractions import Fraction


class FracPoly:
    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        for expts, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c != 0:
                assert len(expts) == n
                clean[tuple(expts)] = c
        self.terms = clean

    def __add__(self, other):
        assert self.n == other.n
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return FracPoly(self.n, terms)

    def __neg__(self):
        return FracPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FracPoly):
            return FracPoly(self.n, {e: c * Fraction(other)
                                     for e, c in self.terms.items()})
        assert self.n == other.n
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return FracPoly(self.n, terms)

    def diff(self, i):
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                terms[tuple(ne)] = terms.get(tuple(ne), Fraction(0)) + c * e[i]
        return FracPoly(self.n, terms)


def from_poly(p):
    return FracPoly(p.n, p.terms)


def from_graded(u):
    return {idx: from_poly(c) for idx, c in u.terms.items()}


def values(terms):
    """{exponent: Fraction} of a FracPoly or Poly term dict."""
    return {e: Fraction(c) for e, c in terms.items()}


def graded_values(terms):
    """{idx: {exponent: Fraction}} with zero coefficients left out."""
    return {idx: values(c.terms) for idx, c in terms.items() if c.terms}


def _sort_sign(idx):
    if len(set(idx)) != len(idx):
        return 0, None
    inv = sum(1 for a in range(len(idx)) for b in range(a + 1, len(idx))
              if idx[a] > idx[b])
    return (-1) ** inv, tuple(sorted(idx))


def _add_term(terms, n, idx, sign, *factors):
    s, key = _sort_sign(idx)
    if not s:
        return
    coeff = factors[0]
    for f in factors[1:]:
        coeff = coeff * f
    coeff = coeff * (s * sign)
    terms[key] = terms.get(key, FracPoly(n)) + coeff


def wedge(n, u, v):
    terms = {}
    for iu, cu in u.items():
        for iv, cv in v.items():
            _add_term(terms, n, iu + iv, 1, cu, cv)
    return terms


def schouten(n, m, u, v):
    """The two-sum formula of `multivec.schouten` on grade-m u."""
    terms = {}
    for iu, f in u.items():
        for iv, g in v.items():
            for a, i in enumerate(iu):
                _add_term(terms, n, iu[:a] + iu[a + 1:] + iv, (-1) ** a,
                          f, g.diff(i))
            for b, j in enumerate(iv):
                _add_term(terms, n, iu + iv[:b] + iv[b + 1:], (-1) ** (m + b),
                          g, f.diff(j))
    return terms


def form_d(n, a):
    terms = {}
    for idx, c in a.items():
        for i in range(n):
            if i not in idx:
                _add_term(terms, n, (i,) + idx, 1, c.diff(i))
    return terms


def interior(n, u, a):
    terms = {}
    for iu, cu in u.items():
        for ia, ca in a.items():
            rest = tuple(i for i in ia if i not in iu)
            if len(rest) == len(ia) - len(iu):
                _add_term(terms, n, rest, _sort_sign(iu + rest)[0], cu, ca)
    return terms


def delta(n, p, a, grade):
    """i_p d - d i_p on a grade-`grade` form; i_p is zero below grade 2."""
    if grade == 0:
        return {}
    ipda = interior(n, p, form_d(n, a))
    dipa = form_d(n, interior(n, p, a)) if grade >= 2 else {}
    out = dict(ipda)
    for idx, c in dipa.items():
        out[idx] = out.get(idx, FracPoly(n)) - c
    return out
